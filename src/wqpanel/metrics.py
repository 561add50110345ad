"""Forecast error metrics and the constant-mean benchmark prediction.

All metrics are stored in original units; report renderers apply the
x1000 display scaling.
"""

from __future__ import annotations

import numpy as np

from .reporting import METRIC_NAMES, MetricReport

EPS_DIV = 1e-12


class MetricGuardError(ValueError):
    """A division guard tripped; carries the metric name and offending index."""

    def __init__(self, metric: str, index: int | None, message: str):
        self.metric = metric
        self.index = index
        super().__init__(message)


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    return arr


def _as_pair(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    y = _as_vector(y, "y")
    yhat = _as_vector(yhat, "yhat")
    if len(y) != len(yhat):
        raise ValueError(f"length mismatch: y has {len(y)} entries, yhat has {len(yhat)}")
    if len(y) == 0:
        raise ValueError("metrics require at least one observation")
    return y, yhat


def _rmse(err: np.ndarray) -> float:
    return float(np.sqrt(np.sum(err**2) / len(err)))


def evaluate(y, yhat) -> MetricReport:
    """Compute RMSE, MAPE, WMAPE, WUPRED and WOPRED for observed y vs predictions.

    MAPE requires every |y_i| > 1e-12, and WUPRED/WOPRED require
    |sum(y_i)| > 1e-12. WMAPE needs no guard of its own: a float sum of
    non-negative terms is at least its largest term, so MAPE's guard
    already makes sum(|y_i|) > 1e-12. Guard violations raise
    MetricGuardError naming the metric and the offending index.
    """
    y, yhat = _as_pair(y, yhat)

    small = np.abs(y) <= EPS_DIV
    if small.any():
        idx = int(np.argmax(small))
        raise MetricGuardError("mape", idx, f"mape division guard: |y[{idx}]| <= {EPS_DIV}")
    y_sum = float(np.sum(y))
    if abs(y_sum) <= EPS_DIV:
        raise MetricGuardError("wupred", None,
                               f"wupred/wopred division guard: |sum(y)| <= {EPS_DIV}")

    err = y - yhat
    n = len(y)
    rmse = _rmse(err)
    mape = float(np.mean(np.abs(err / y)))
    wmape = float(np.sum(np.abs(err)) / np.sum(np.abs(y)))
    wupred = float(np.sum(err[err > 0]) / y_sum)
    wopred = float(np.sum(-err[err < 0]) / y_sum)
    return MetricReport(rmse=rmse, mape=mape, wmape=wmape, wupred=wupred, wopred=wopred, n=n)


def score(y, yhat) -> float:
    """Tuning score: negative RMSE, so higher is better.

    Only RMSE is computed, so a target at zero, which the MAPE guard of
    evaluate rejects, does not abort tuning.
    """
    y, yhat = _as_pair(y, yhat)
    return -_rmse(y - yhat)


def fit_benchmark(train_y) -> float:
    """The benchmark's prediction for every row: the training-target mean."""
    train_y = _as_vector(train_y, "train_y")
    if len(train_y) == 0:
        raise ValueError("fit_benchmark requires at least one training target")
    return float(np.mean(train_y))
