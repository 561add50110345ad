import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wqpanel.metrics import EPS_DIV, MetricGuardError, evaluate, fit_benchmark, score


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
    # every |y_i| passes the MAPE guard, but WUPRED/WOPRED divide by sum(y) = 0
    with pytest.raises(MetricGuardError) as info:
        evaluate([1.0, -1.0], [0.5, -0.5])
    assert info.value.metric == "wupred"


def test_mape_guard_trips_at_exactly_eps_div():
    # |y_i| == EPS_DIV is refused and the next float up is not; the same
    # guard makes sum|y| > EPS_DIV, so WMAPE has none of its own
    for small in (EPS_DIV, -EPS_DIV):
        with pytest.raises(MetricGuardError) as info:
            evaluate([1.0, small], [1.0, 1.0])
        assert (info.value.metric, info.value.index) == ("mape", 1)
    above = np.nextafter(EPS_DIV, 1.0)
    assert evaluate([above], [0.0]).wmape == 1.0


def test_signed_sum_guard_trips_at_exactly_eps_div():
    # two targets each beyond the MAPE guard whose sum is EPS_DIV exactly
    a = 2.5 * EPS_DIV
    at = np.array([a, EPS_DIV - a])
    assert at.sum() == EPS_DIV and np.all(np.abs(at) > EPS_DIV)
    for y in (at, -at):
        with pytest.raises(MetricGuardError) as info:
            evaluate(y, y)
        assert info.value.metric == "wupred"
    above = np.array([a, np.nextafter(EPS_DIV - a, 1.0)])
    assert above.sum() > EPS_DIV
    assert evaluate(above, above).wupred == 0.0
    assert evaluate(-above, -above).wopred == 0.0


def test_benchmark_mean_and_constant_prediction():
    # the benchmark predicts the training-target mean for every row
    assert fit_benchmark([1.0, 2.0, 3.0]) == 2.0
    assert type(fit_benchmark(np.array([1, 2]))) is float
    with pytest.raises(ValueError):
        fit_benchmark([])
