import itertools
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (assert_setups_close, at_least, kkt_max_violation, lambda_max,
                      oracle_setup, working_space)
from wqpanel import elastic_net as en
from wqpanel.elastic_net import (ElasticNetConfig, LinearModel, fit_elastic_net,
                                 predict_linear, prepare_fit)
from wqpanel.fieldtypes import build


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
    """The objective the solver minimizes, in its working space, at the
    model's coefficients."""
    Xs, _, scale = working_space(np.asarray(X, dtype=float), cfg.standardize_internally)
    return objective_value(Xs, y - y.mean(), 0.0, model.coefficients * scale,
                           cfg.lam, cfg.alpha)


def iterates(X, y, cfg, setup=None) -> list:
    """The fits stopped after 1, 2, ... active-set steps, up to the step at
    which the full fit ends: the solver's own iterates."""
    sweeps = fit_elastic_net(X, y, cfg, setup=setup).sweeps_used
    return [fit_elastic_net(X, y, replace(cfg, max_iter=k), setup=setup)
            for k in range(1, sweeps + 1)]


@pytest.mark.parametrize("standardize", [True, False])
def test_lambda_zero_matches_ols(standardize):
    rng = np.random.default_rng(42)
    for _ in range(10):
        X, y = random_instance(rng)
        cfg = ElasticNetConfig(lam=0.0, alpha=0.5, max_iter=5000,
                               standardize_internally=standardize)
        model = fit_elastic_net(X, y, cfg)
        b0, coef = ols_oracle(X, y)
        np.testing.assert_allclose(model.coefficients, coef, atol=1e-6)
        assert model.intercept == pytest.approx(b0, abs=1e-6)


def test_noiseless_line():
    x = np.linspace(0, 1, 30)[:, None]
    y = 2.0 * x.ravel() + 1.0
    model = fit_elastic_net(x, y, ElasticNetConfig(lam=0.0, max_iter=10000))
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
    cfg = ElasticNetConfig(lam=lam, alpha=alpha, max_iter=200)
    fits = iterates(X, y, cfg)
    assert [m.sweeps_used for m in fits] == list(range(1, len(fits) + 1))
    trace = np.array([working_objective(X, y, m, cfg) for m in fits])
    assert np.all(np.diff(trace) <= 1e-12)


def test_working_objective_matches_objective_value_without_scaling():
    rng = np.random.default_rng(21)
    X, y = random_instance(rng, n=60, p=4)
    cfg = ElasticNetConfig(lam=0.05, alpha=0.7, max_iter=500,
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
    cfg = ElasticNetConfig(lam=lam, alpha=alpha, max_iter=10000,
                           standardize_internally=standardize)
    model = fit_elastic_net(X, y, cfg)
    assert kkt_max_violation(X, y, model, cfg) < 1e-8


def test_ridge_matches_closed_form():
    rng = np.random.default_rng(10)
    X, y = random_instance(rng, n=60, p=4, noise=0.1)
    lam = 0.3
    cfg = ElasticNetConfig(lam=lam, alpha=0.0, max_iter=20000,
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
                                                       max_iter=5000))
        counts.append(int(np.count_nonzero(model.coefficients)))
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 0


def test_constant_column_gets_zero_coefficient():
    rng = np.random.default_rng(2)
    X = np.column_stack([rng.standard_normal(50), np.full(50, 2.5)])
    y = 3.0 * X[:, 0] + 1.0
    model = fit_elastic_net(X, y, ElasticNetConfig(lam=0.0, max_iter=5000))
    assert model.coefficients[1] == 0.0
    assert model.coefficients[0] == pytest.approx(3.0, abs=1e-8)


@pytest.mark.parametrize("value", [0.1, 7.3, 3.3])
@pytest.mark.parametrize("standardize", [True, False])
def test_a_constant_column_whose_mean_rounds_stays_out_of_the_fit(value, standardize):
    # the mean of 200 copies of 0.1 is not 0.1, so centering alone left
    # 1e-17s in the working column; standardized by their spread (6.9e-17)
    # they became a column of size 1, whose coefficient was 6.56, moving
    # the intercept by 0.66. A column whose minimum is its maximum now has
    # scale 1 and an exactly zero working column
    rng = np.random.default_rng(5)
    X = rng.standard_normal((200, 3))
    y = 7.0 + X @ [0.3, -0.2, 0.1] + 0.1 * rng.standard_normal(200)
    with_constant = np.column_stack([X, np.full(200, value)])
    setup = prepare_fit(with_constant, y, standardize)
    assert setup.scale[3] == 1.0
    assert not setup.gram[3].any() and not setup.gram[:, 3].any() and setup.xy[3] == 0.0
    for lam in (0.0, 1e-4):
        cfg = ElasticNetConfig(lam=lam, alpha=0.0, standardize_internally=standardize)
        model, without = fit_elastic_net(with_constant, y, cfg), fit_elastic_net(X, y, cfg)
        assert model.coefficients[3] == 0.0
        np.testing.assert_allclose(model.coefficients[:3], without.coefficients,
                                   rtol=0, atol=1e-12)
        assert model.intercept == pytest.approx(without.intercept, rel=0, abs=1e-12)


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
        ElasticNetConfig(max_iter=0)


@pytest.mark.parametrize("field, value, message", [
    ("max_iter", 2.5, "max_iter must be an integer, got 2.5"),
    ("max_iter", 2.0, "max_iter must be an integer, got 2.0"),
    ("max_iter", float("nan"), "max_iter must be an integer, got nan"),
    ("max_iter", 1e308, "max_iter must be an integer, got 1e+308"),
    ("max_iter", True, "max_iter must be an integer, got True"),
    ("lam", float("nan"), "lam must be a finite number, got nan"),
    ("lam", float("inf"), "lam must be a finite number, got inf"),
    ("lam", 10 ** 400, "lam must be a finite number, got 1000"),
    ("tol", float("nan"), "tol is not a setting"),
    ("tol", float("inf"), "tol is not a setting"),
])
def test_config_rejects_a_non_integer_max_iter_and_a_non_finite_lam_or_tol(field, value, message):
    # each used to be accepted: a float max_iter then failed in range() and
    # a NaN lam fitted all-zero slopes; the search is exact, so a config
    # read from JSON has no stop tolerance to set
    with pytest.raises(ValueError, match=re.escape(message)):
        build(ElasticNetConfig, {field: value})
    if field != "tol":
        with pytest.raises(ValueError, match=re.escape(message)):
            ElasticNetConfig(**{field: value})
    assert ElasticNetConfig(max_iter=np.int64(7)).max_iter == 7


def _assert_same_fit(model, other):
    assert model.coefficients.tobytes() == other.coefficients.tobytes()
    assert model.intercept.hex() == other.intercept.hex()
    assert model.sweeps_used == other.sweeps_used


def correlated_instance(seed, constant_column=False):
    rng = np.random.default_rng(seed)
    X, y = random_instance(rng, n=90, p=6, noise=0.4)
    X[:, 2] = 0.9 * X[:, 1] + 0.4 * X[:, 2]
    X = X * np.array([1.0, 5.0, 0.2, 1.0, 30.0, 1.0]) + 4.0
    if constant_column:
        X[:, 3] = -1.25
    return X, y


@pytest.mark.parametrize("seed,lam,alpha", [(35, 0.3, 0.5), (3, 0.05, 0.5), (1, 0.3, 1.0)])
def test_max_iter_stops_the_search_after_that_many_steps(seed, lam, alpha):
    # a cap one step too loose (steps <= max_iter) passed every other test:
    # their fits take one step, or compare two fits under the same cap
    X, y = correlated_instance(seed)
    cfg = ElasticNetConfig(lam=lam, alpha=alpha)
    steps = fit_elastic_net(X, y, cfg).sweeps_used
    assert steps >= 3
    for k in range(1, steps):
        assert fit_elastic_net(X, y, replace(cfg, max_iter=k)).sweeps_used == k


def test_setup_must_fit_the_config():
    X, y = correlated_instance(35)
    setup = prepare_fit(X, y, standardize=True)
    with pytest.raises(ValueError, match="standardize"):
        fit_elastic_net(X, y, ElasticNetConfig(standardize_internally=False), setup=setup)
    cfg = ElasticNetConfig(lam=0.01)
    fits = iterates(X, y, cfg, setup=setup)
    assert len(fits) > 1
    for k, model in enumerate(fits, start=1):
        _assert_same_fit(model, fit_elastic_net(X, y, replace(cfg, max_iter=k)))


# ------------------------------------------------- the active-set path

def fit_counting_singular_blocks(X, y, cfg, setup=None):
    """(the fit of cfg, how many of its block solves met a singular block):
    a Cholesky factorization that fails, or has a pivot² at most
    _PIVOT_FLOOR times the block's largest diagonal entry."""
    count = 0
    solve = en._block_target

    def counting(Q, r, b):
        nonlocal count
        try:
            L = np.linalg.cholesky(Q)
            count += bool(np.diag(L).min() ** 2 <= en._PIVOT_FLOOR * np.diag(Q).max())
        except np.linalg.LinAlgError:
            count += 1
        return solve(Q, r, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(en, "_block_target", counting)
        model = fit_elastic_net(X, y, cfg, setup=setup)
    return model, count


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
    X, y = correlated_instance(31, constant_column)
    cfg = ElasticNetConfig(lam=lam, alpha=alpha, standardize_internally=standardize)
    model, singular = fit_counting_singular_blocks(X, y, cfg)
    assert not singular
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
    Xs, x_mean, scale = working_space(X, standardize)
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
def test_singular_lasso_meets_kkt(standardize, instance):
    X, y = instance()
    lasso = ElasticNetConfig(lam=1e-3, alpha=1.0, standardize_internally=standardize)
    model, singular = fit_counting_singular_blocks(X, y, lasso)
    assert singular
    assert model.sweeps_used < lasso.max_iter
    assert kkt_max_violation(X, y, model, lasso) <= 1e-12
    _assert_same_fit(fit_elastic_net(X, y, lasso, setup=prepare_fit(X, y, standardize)), model)
    # the penalty's ridge part makes every block regular
    assert not fit_counting_singular_blocks(X, y, replace(lasso, alpha=0.99))[1]


def test_block_target_on_singular_and_nearly_singular_blocks():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((40, 3))
    X = np.column_stack([A, A[:, 0]])  # columns 0 and 3 equal
    Q = X.T @ X / 40
    b = np.array([1 / 3, -0.2, 0.3, 0.0])  # column 3 joins
    # r with a part along the null direction (-1, 0, 0, 1): the step runs
    # along it until b[0] reaches zero (set exactly: the step itself leaves
    # 5.6e-17 there), leaving the other columns as they were
    r = Q @ rng.standard_normal(4) + 1e-3 * np.array([-1.0, 0.0, 0.0, 1.0])
    x, exact = en._block_target(Q, r, b)
    assert not exact
    assert x[0] == 0.0 and x[1] == -0.2 and x[2] == 0.3
    assert x[3] == pytest.approx(1 / 3, rel=1e-12)
    # r with no such part: the least-norm solution, split evenly
    x, exact = en._block_target(Q, Q @ np.array([0.2, -0.2, 0.3, 0.2]), b)
    assert exact
    np.testing.assert_allclose(x, [0.2, -0.2, 0.3, 0.2], rtol=0, atol=1e-14)
    # with two joiners the search joins one alone instead
    two_joiners = np.array([1 / 3, 0.0, 0.3, 0.0])
    assert en._block_target(Q, Q @ rng.standard_normal(4), two_joiners) is None
    # columns 1e-5 apart: a scaled eigenvalue near 5e-11 fails the pivot
    # test but is no null space, so the block is solved
    X[:, 3] += 1e-5 * rng.standard_normal(40)
    Q = X.T @ X / 40
    r = Q @ np.array([0.4, -0.2, 0.3, 0.1])
    x, exact = en._block_target(Q, r, b)
    assert exact
    np.testing.assert_allclose(Q @ x, r, rtol=0, atol=1e-15)


def test_block_target_scales_the_pivot_floor_by_the_block_diagonal():
    # the unstandardized Gram block of two columns of size 100 that agree
    # to rounding: its Cholesky factor exists, with a pivot² of 9.1e-12,
    # which is 9.1e-16 of the diagonal, so the block is singular. A floor
    # not scaled by the diagonal (1e-10 / 1e4) would take it as regular
    # and solve it, to coefficients near ±2.2e8
    Q = 1e4 * np.array([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -50]])
    pivot2 = np.diag(np.linalg.cholesky(Q)).min() ** 2
    assert en._PIVOT_FLOOR / 1e4 < pivot2 <= en._PIVOT_FLOOR * 1e4
    b = np.array([0.5, 0.0])  # column 1 joins
    # r with a part along the null direction: the step runs along it
    # until b[0] reaches zero
    x, exact = en._block_target(Q, Q @ np.array([0.3, 0.3]) + 1e-3 * np.array([-1.0, 1.0]), b)
    assert not exact
    assert x[0] == 0.0 and x[1] == pytest.approx(0.5, rel=1e-12)
    # r with none: the least-norm solution
    x, exact = en._block_target(Q, Q @ np.array([0.3, 0.3]), b)
    assert exact
    np.testing.assert_allclose(x, [0.3, 0.3], rtol=1e-12)


def test_shared_setup_equals_a_fresh_active_set_fit():
    X, y = correlated_instance(34)
    for flag in (True, False):
        setup = prepare_fit(X, y, flag)
        for lam, alpha in itertools.product((0.0, 1e-3, 0.1), (0.0, 0.5, 1.0)):
            cfg = ElasticNetConfig(lam=lam, alpha=alpha, standardize_internally=flag)
            model, singular = fit_counting_singular_blocks(X, y, cfg, setup=setup)
            assert not singular
            _assert_same_fit(model, fit_elastic_net(X, y, cfg))


# ------------------------------------------------------ fold set-ups

def training_folds(n, k, scheme):
    from wqpanel.tuner import CVConfig, FoldScheme, kfold_split
    return [train for train, _ in kfold_split(n, CVConfig(k=k, scheme=FoldScheme(scheme)), 7)]


def _assert_same_setup(setup, other):
    for name in ("gram", "xy", "x_mean", "scale", "diag"):
        assert getattr(setup, name).tobytes() == getattr(other, name).tobytes(), name
    assert setup.y_mean.hex() == other.y_mean.hex()


def one_fold_constant_instance(scheme, fold=1):
    """correlated_instance with a one-hot column that is 0 on the training
    rows of ``fold`` (of k=5) and 1 on its validation rows."""
    X, y = correlated_instance(33)
    X[:, 3] = 1.0
    X[training_folds(len(y), 5, scheme)[fold], 3] = 0.0
    return X, y


FOLD_DESIGNS = {
    "correlated": lambda scheme: correlated_instance(31),
    "constant_column": lambda scheme: correlated_instance(31, constant_column=True),
    "one_hot": lambda scheme: one_hot_instance(),
    "one_fold_constant": one_fold_constant_instance,
}


@pytest.mark.parametrize("scheme", ["shuffled", "blocked_by_time"])
@pytest.mark.parametrize("design", FOLD_DESIGNS)
@pytest.mark.parametrize("standardize", [True, False])
def test_fold_setups_equal_prepare_fit_to_rounding_and_ignore_the_other_folds(
        scheme, design, standardize):
    # each fold's set-up is prepare_fit's on its rows to 1e-11, and the
    # same bits whichever folds it is built with: the k=5 chunks of two
    # and three jobs, and each fold alone
    X, y = FOLD_DESIGNS[design](scheme)
    folds = training_folds(len(y), 5, scheme)
    setups = en.prepare_folds(X, y, folds, standardize)
    for rows, setup in zip(folds, setups):
        assert_setups_close(setup, oracle_setup(X[rows], y[rows], standardize))
    for chunk in ([0, 1, 2], [3, 4], [0, 1], [2, 3], [4], [1], [3]):
        for i, setup in zip(chunk, en.prepare_folds(X, y, [folds[i] for i in chunk],
                                                    standardize)):
            _assert_same_setup(setup, setups[i])


@pytest.mark.parametrize("scheme", ["shuffled", "blocked_by_time"])
@pytest.mark.parametrize("standardize", [True, False])
def test_a_column_constant_on_a_folds_rows_gets_a_zero_coefficient(monkeypatch, scheme,
                                                                   standardize):
    # 0 on fold 1's training rows, 1 on its validation rows: the sums
    # leave the column a spread of rounding size there, which scaled to a
    # unit Gram diagonal would fit a coefficient to rounding. The other
    # blocks' minima and maxima mark it constant instead, so it gets scale
    # 1 and no part in the fit, without rebuilding the fold from its rows
    X, y = one_fold_constant_instance(scheme)
    folds = training_folds(len(y), 5, scheme)
    validation = np.setdiff1d(np.arange(len(y)), folds[1])
    monkeypatch.setattr(en, "prepare_fit", None)  # no fold is built from its rows
    setups = en.prepare_folds(X, y, folds, standardize)
    monkeypatch.undo()
    assert setups[1].scale[3] == 1.0 and setups[1].xy[3] == 0.0
    assert not setups[1].gram[3].any() and not setups[1].gram[:, 3].any()
    assert all(setup.diag[3] > 0.0 for i, setup in enumerate(setups) if i != 1)
    for lam, alpha in [(0.0, 0.5), (1e-4, 0.0), (1e-3, 1.0), (0.1, 0.5)]:
        cfg = ElasticNetConfig(lam=lam, alpha=alpha, standardize_internally=standardize)
        model = fit_elastic_net(None, None, cfg, setup=setups[1])
        alone = fit_elastic_net(X[folds[1]], y[folds[1]], cfg)
        assert model.coefficients[3] == 0.0
        np.testing.assert_allclose(predict_linear(model, X[validation]),
                                   predict_linear(alone, X[validation]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("scheme", ["shuffled", "blocked_by_time"])
@pytest.mark.parametrize("design", FOLD_DESIGNS)
@pytest.mark.parametrize("standardize", [True, False])
def test_fold_cells_meet_kkt_on_their_rows(scheme, design, standardize):
    # each cell, solved from its fold's set-up, meets the stationarity
    # conditions on that fold's rows at the lone fits' bounds: to rounding
    # (test_active_set_meets_kkt_to_rounding), or on a singular block the
    # bound of test_active_set_meets_kkt_on_drawn_designs
    X, y = FOLD_DESIGNS[design](scheme)
    folds = training_folds(len(y), 5, scheme)
    for rows, setup in zip(folds, en.prepare_folds(X, y, folds, standardize)):
        for lam, alpha in [(0.0, 0.5), (1e-3, 0.0), (1e-3, 1.0), (0.02, 0.5), (0.3, 1.0),
                           (5.0, 0.3)]:
            cfg = ElasticNetConfig(lam=lam, alpha=alpha, standardize_internally=standardize)
            model, singular = fit_counting_singular_blocks(None, None, cfg, setup=setup)
            scale = max(1.0, float(np.abs(setup.xy).max())) if singular else 1.0
            assert model.sweeps_used < cfg.max_iter
            assert kkt_max_violation(X[rows], y[rows], model, cfg) <= (
                (1e-6 if singular else 1e-12) * scale), (lam, alpha)


def test_a_fold_the_subtraction_cannot_resolve_is_built_from_its_rows():
    # column 0 spreads by 1e-9 on fold 0's training rows and by 5 on its
    # validation rows: the subtraction would cancel all but 6e-19 of its
    # sum of squares (and gave a scale of 3.7e-8 for 9.6e-10), so that
    # fold is prepare_fit's on its rows, bit for bit
    X, y = correlated_instance(36)
    folds = training_folds(len(y), 3, "blocked_by_time")
    X[folds[0], 0] = 2.0 + 1e-9 * X[folds[0], 0]
    setups = en.prepare_folds(X, y, folds, True)
    _assert_same_setup(setups[0], prepare_fit(X[folds[0]], y[folds[0]], True))
    for rows, setup in zip(folds[1:], setups[1:]):
        assert_setups_close(setup, oracle_setup(X[rows], y[rows], True))


@pytest.mark.parametrize("standardize", [True, False])
def test_a_column_whose_spread_underflows_gets_scale_1_and_no_part_in_the_fit(standardize):
    # deviations near 1e-200 square to 0: the column is not constant, but
    # its spread is 0, so it gets scale 1, as the oracle's sd == 0 gives
    # it. On each fold the subtraction leaves that spread at 0, so the
    # fold is built from its own rows, where nothing is subtracted and the
    # build ends
    X, y = correlated_instance(38)
    X[:, 2] = 1e-200 * (1.0 + X[:, 2] ** 2)
    folds = training_folds(len(y), 3, "shuffled")
    setups = [prepare_fit(X, y, standardize), *en.prepare_folds(X, y, folds, standardize)]
    for rows, setup in zip([np.arange(len(y)), *folds], setups):
        assert setup.scale[2] == 1.0 and setup.diag[2] == 0.0
        assert_setups_close(setup, oracle_setup(X[rows], y[rows], standardize))
    model = fit_elastic_net(X, y, ElasticNetConfig(lam=1e-3, standardize_internally=standardize))
    assert model.coefficients[2] == 0.0


@at_least(100)
@given(data=st.data())
def test_every_setup_equals_the_oracle_on_drawn_designs(data):
    # prepare_fit, and each fold's set-up under both fold schemes, is the
    # row-scaling oracle's on its rows to 1e-11, on designs with column
    # scales from 0.01 to 100, a complete one-hot block, duplicate and
    # constant columns, and a column constant on one fold's rows only
    n = data.draw(st.integers(3, 60), label="rows")
    p = data.draw(st.integers(1, 12), label="columns")
    k = data.draw(st.integers(2, min(n, 5)), label="folds")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    scales = 10.0 ** rng.uniform(-2.0, 2.0, p)
    X = (rng.standard_normal((n, p)) + rng.uniform(-5.0, 5.0, p)) * scales
    if p > 2 and data.draw(st.booleans(), label="one-hot"):
        levels = data.draw(st.integers(2, min(p, 5)), label="levels")
        at = data.draw(st.integers(0, p - levels), label="at")
        X[:, at:at + levels] = np.eye(levels)[rng.permutation(np.arange(n) % levels)]
    if p > 1 and data.draw(st.booleans(), label="duplicate"):
        i, j = data.draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2, unique=True),
                         label="duplicated")
        X[:, j] = X[:, i]
    if data.draw(st.booleans(), label="constant"):
        X[:, data.draw(st.integers(0, p - 1), label="constant column")] = data.draw(
            st.sampled_from([0.0, 0.1, 3.3, -1e3]), label="value")
    fold_constant = data.draw(st.none() | st.tuples(st.integers(0, k - 1), st.integers(0, p - 1)),
                              label="constant on one fold")
    y = (rng.standard_normal(n) + rng.uniform(-5.0, 5.0)) * 10.0 ** rng.uniform(-2.0, 2.0)
    for standardize in (True, False):
        assert_setups_close(prepare_fit(X, y, standardize), oracle_setup(X, y, standardize))
    for scheme in ("shuffled", "blocked_by_time"):
        folds = training_folds(n, k, scheme)
        design = X.copy()
        if fold_constant is not None:
            fold, column = fold_constant
            design[folds[fold], column] = design[folds[fold][0], column]
        for standardize in (True, False):
            for rows, setup in zip(folds, en.prepare_folds(design, y, folds, standardize)):
                assert_setups_close(setup, oracle_setup(design[rows], y[rows], standardize))


def test_prepare_folds_checks_its_folds():
    X, y = correlated_instance(37)
    with pytest.raises(ValueError, match="distinct"):
        en.prepare_folds(X, y, [np.array([0, 1, 1, 2])], True)
    with pytest.raises(ValueError, match="at least one row"):
        en.prepare_folds(X, y, [np.arange(len(y)), np.array([], dtype=int)], True)
    with pytest.raises(ValueError, match="non-finite"):
        en.prepare_folds(np.where(X > 5.0, np.nan, X), y, [np.arange(len(y))], True)
    # no row may be left out by two folds: rows 0-9 leave folds 0 and 2
    overlapping = [np.arange(30, 90), np.arange(0, 60), np.arange(10, 90)]
    with pytest.raises(ValueError, match="fold 2 leaves out a row .* must not overlap"):
        en.prepare_folds(X, y, overlapping, False)


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
    design, _ = tuner.prepare_designs(train, cfg.strategy, cfg.categoricals)
    return design.X, design.y


# the elastic-net grid of perfbench's linear100x workload
LINEAR100X_GRID = {"lam": [1e-4, 1e-3, 1e-2, 1e-1, 1.0], "alpha": [0.5, 1.0]}
GRID_CONFIGS = list(dict.fromkeys([
    *itertools.product(en.DEFAULT_LAMBDA_GRID, en.DEFAULT_ALPHA_GRID),
    *itertools.product(LINEAR100X_GRID["lam"], LINEAR100X_GRID["alpha"])]))


@pytest.mark.parametrize("design", ["demo", "one_hot"])
@pytest.mark.parametrize("lam,alpha", GRID_CONFIGS)
def test_every_grid_config_meets_kkt(request, design, lam, alpha):
    X, y = request.getfixturevalue("demo_design") if design == "demo" else one_hot_instance()
    cfg = ElasticNetConfig(lam=lam, alpha=alpha)
    model = fit_elastic_net(X, y, cfg)
    assert model.sweeps_used < cfg.max_iter
    assert kkt_max_violation(X, y, model, cfg) <= 1e-6


def test_active_set_meets_kkt_on_drawn_designs():
    # column scales from 0.01 to 100, correlated columns, complete one-hot
    # blocks, exact duplicate columns and constant columns; joiners that
    # come out of their sign, steps that join one coefficient alone, steps
    # along a null direction and coefficients that reach zero together all
    # occur among these draws. A draw that meets no singular block is
    # solved to rounding; the others, among them least squares on blocks
    # whose smallest nonzero eigenvalue is near 1e-11, to a looser bound.
    rng = np.random.default_rng(2024)
    for _ in range(600):
        n, p = int(rng.integers(5, 80)), int(rng.integers(1, 25))
        X = rng.standard_normal((n, p)) * rng.choice([0.01, 1.0, 100.0], p)
        if rng.random() < 0.5:
            X[:, 1:] += 5.0 * rng.random() * X[:, :1]
        if p > 3 and rng.random() < 0.3:
            levels = int(rng.integers(2, min(p, 6) + 1))
            X[:, :levels] = np.eye(levels)[rng.integers(0, levels, n)]
        if p > 1 and rng.random() < 0.2:
            X[:, -1] = X[:, int(rng.integers(0, p - 1))]
        if rng.random() < 0.2:
            X[:, -1] = 3.3
        y = rng.random() * X @ rng.standard_normal(p) + 3.0 * rng.random() * rng.standard_normal(n)
        cfg = ElasticNetConfig(lam=float(rng.choice([0.0, 1e-4, 1e-2, 1.0]) * 2.0 * rng.random()),
                               alpha=float(rng.choice([0.0, 0.5, 0.9, 1.0])),
                               standardize_internally=bool(rng.random() < 0.6))
        model, singular = fit_counting_singular_blocks(X, y, cfg)
        scale = max(1.0, float(np.abs(prepare_fit(X, y, cfg.standardize_internally).xy).max()))
        assert model.sweeps_used < cfg.max_iter
        assert kkt_max_violation(X, y, model, cfg) <= (1e-6 if singular else 1e-10) * scale
