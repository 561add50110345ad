import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wqpanel.metrics import (BenchmarkModel, MetricGuardError, evaluate,
                             fit_benchmark, score)


def reference_metrics(y, yhat):
    """Brute-force one-file reference: pure-python loops, no numpy."""
    n = len(y)
    sq = sum((a - b) ** 2 for a, b in zip(y, yhat))
    rmse = math.sqrt(sq / n)
    mape = sum(abs((a - b) / a) for a, b in zip(y, yhat)) / n
    wmape = sum(abs(a - b) for a, b in zip(y, yhat)) / sum(abs(a) for a in y)
    ysum = sum(y)
    wupred = sum((a - b) for a, b in zip(y, yhat) if a > b) / ysum
    wopred = sum((b - a) for a, b in zip(y, yhat) if a < b) / ysum
    return rmse, mape, wmape, wupred, wopred


def test_hand_example():
    rep = evaluate([2.0, 4.0], [1.0, 5.0])
    assert rep.rmse == pytest.approx(1.0, abs=1e-15)
    assert rep.mape == pytest.approx(0.375, abs=1e-15)
    assert rep.wmape == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert rep.wupred == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert rep.wopred == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert rep.n == 2


def test_perfect_prediction_all_zero():
    y = np.array([0.6, 0.7, 0.66])
    rep = evaluate(y, y.copy())
    assert rep.rmse == rep.mape == rep.wmape == rep.wupred == rep.wopred == 0.0


def test_matches_reference_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.integers(1, 40)
        y = rng.uniform(0.3, 1.5, n)
        yhat = y + rng.normal(0, 0.2, n)
        rep = evaluate(y, yhat)
        ref = reference_metrics(y.tolist(), yhat.tolist())
        for got, want in zip((rep.rmse, rep.mape, rep.wmape, rep.wupred, rep.wopred), ref):
            assert got == pytest.approx(want, abs=1e-12)


@given(st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(-10.0, 10.0)),
                min_size=1, max_size=30))
def test_decomposition_for_positive_targets(pairs):
    y = np.array([p[0] for p in pairs])
    yhat = np.array([p[1] for p in pairs])
    rep = evaluate(y, yhat)
    assert rep.wupred + rep.wopred == pytest.approx(rep.wmape, abs=1e-12)


@given(st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(-10.0, 10.0)),
                min_size=2, max_size=30),
       st.randoms(use_true_random=False))
def test_permutation_invariance(pairs, rnd):
    y = np.array([p[0] for p in pairs])
    yhat = np.array([p[1] for p in pairs])
    perm = list(range(len(y)))
    rnd.shuffle(perm)
    a = evaluate(y, yhat)
    b = evaluate(y[perm], yhat[perm])
    for name in ("rmse", "mape", "wmape", "wupred", "wopred"):
        assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-12)


@given(st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(-10.0, 10.0)),
                min_size=1, max_size=30))
def test_rms_at_least_mean_abs_error(pairs):
    y = np.array([p[0] for p in pairs])
    yhat = np.array([p[1] for p in pairs])
    rep = evaluate(y, yhat)
    assert rep.rmse >= np.mean(np.abs(y - yhat)) - 1e-12


def test_guard_small_y_names_metric_and_index():
    with pytest.raises(MetricGuardError) as err:
        evaluate([0.5, 0.0, 0.4], [0.5, 0.1, 0.4])
    assert err.value.metric == "mape"
    assert err.value.index == 1


def test_length_mismatch_and_empty():
    with pytest.raises(ValueError, match="length mismatch"):
        evaluate([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        evaluate([], [])


def test_score_is_negative_rmse():
    assert score([2.0, 4.0], [1.0, 5.0]) == pytest.approx(-1.0)
    assert score([1.0, 2.0], [1.0, 2.0]) == 0.0
    rng = np.random.default_rng(5)
    y = rng.uniform(0.5, 1.0, 20)
    yhat = rng.uniform(0.5, 1.0, 20)
    assert score(y, yhat) == -evaluate(y, yhat).rmse


def test_score_ignores_the_mape_guard():
    # a zero target trips MAPE's division guard, which tuning never reports
    with pytest.raises(MetricGuardError):
        evaluate([0.0, 2.0], [1.0, 2.0])
    assert score([0.0, 2.0], [1.0, 2.0]) == -math.sqrt(0.5)


def test_signed_sum_guard():
    # sum|y| > 0 passes the WMAPE guard, but WUPRED/WOPRED divide by sum(y) = 0
    with pytest.raises(MetricGuardError) as info:
        evaluate([1.0, -1.0], [0.5, -0.5])
    assert info.value.metric == "wupred"


def test_benchmark_mean_and_constant_prediction():
    model = fit_benchmark([1.0, 2.0, 3.0])
    assert model.constant == 2.0
    a = model.predict(np.zeros((4, 3)))
    b = model.predict(np.ones((4, 7)))
    assert np.array_equal(a, b)
    assert np.array_equal(a, np.full(4, 2.0))
    with pytest.raises(ValueError):
        fit_benchmark([])


def test_benchmark_model_is_plain_constant():
    assert BenchmarkModel(constant=0.5).predict(np.empty((2, 1))).tolist() == [0.5, 0.5]
