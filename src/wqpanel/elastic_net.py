"""Elastic-net linear regression fit by cyclic coordinate descent.

Minimizes sum((y_i - x_i'b)^2) / (2n) + lam*(1-alpha)/2 * sum(b_j^2)
+ lam*alpha * sum(|b_j|) with an unpenalized intercept. Predictors are
standardized internally before penalization by default (coefficients are
mapped back to the original scale on return).

A fit is a set-up and a descent. prepare_fit checks the inputs and builds
everything no config changes: the working space (column means and scales),
the Gram matrix X'X/n, X'y/n and its diagonal. fit_elastic_net builds it
itself, or takes one made beforehand, so the tuner builds it once per fold
(and per standardize_internally value) and runs every config's descent
from it. The descent keeps its scalar steps on Python floats; IEEE
rounding of + - * / and abs is the same for them as for numpy float64
scalars, and the dot product with the Gram row is still an ndarray one,
so a shared set-up and the fast loop give the same coefficients, bit for
bit, as a fit from scratch with all-numpy steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .fieldtypes import Numbers, check_field_types


@dataclass(frozen=True)
class ElasticNetConfig:
    lam: float = 1e-3
    alpha: float = 0.5
    tol: float = 1e-7
    max_iter: int = 1000
    standardize_internally: bool = True

    def __post_init__(self):
        check_field_types(self)
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class LinearModel:
    intercept: float
    coefficients: Annotated[np.ndarray, Numbers()]
    sweeps_used: int


def _working_space(X: np.ndarray, standardize: bool):
    """Centered (and optionally scaled) predictors plus the back-mapping data."""
    x_mean = X.mean(axis=0)
    if standardize:
        sd = X.std(axis=0, ddof=0)
        scale = np.where(sd == 0.0, 1.0, sd)
    else:
        scale = np.ones(X.shape[1])
    Xs = X - x_mean
    Xs /= scale
    return Xs, x_mean, scale


@dataclass(frozen=True)
class FitSetup:
    """What a descent needs from (X, y) that no config changes.

    prepare_fit builds it; fit_elastic_net runs one config's descent from
    it, so the configs of one fold can share it.
    """

    standardize: bool
    x_mean: np.ndarray
    scale: np.ndarray
    y_mean: float
    gram: np.ndarray
    xy: np.ndarray
    diag: np.ndarray


def prepare_fit(X, y, standardize: bool) -> FitSetup:
    """Check (X, y) and build the working space, Gram matrix and X'y once."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    n = X.shape[0]
    if n == 0:
        raise ValueError("fit_elastic_net requires at least one row")
    if len(y) != n:
        raise ValueError("y length does not match X")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in input")

    Xs, x_mean, scale = _working_space(X, standardize)
    y_mean = float(y.mean())
    yc = y - y_mean
    gram = Xs.T @ Xs / n
    return FitSetup(
        standardize=standardize, x_mean=x_mean, scale=scale, y_mean=y_mean,
        gram=gram, xy=Xs.T @ yc / n, diag=np.diag(gram).copy())


def fit_elastic_net(X, y, cfg: ElasticNetConfig,
                    setup: FitSetup | None = None) -> LinearModel:
    """Cyclic coordinate descent with soft-thresholding and Gram-matrix updates.

    Deterministic (fixed cyclic order over columns); converged when the
    largest coefficient change in a sweep drops below cfg.tol, or after
    cfg.max_iter sweeps. ``setup`` is prepare_fit(X, y,
    cfg.standardize_internally) made beforehand; without it the set-up is
    built here.
    """
    if setup is None:
        setup = prepare_fit(X, y, cfg.standardize_internally)
    elif setup.standardize != cfg.standardize_internally:
        raise ValueError("setup was prepared with standardize="
                         f"{setup.standardize}, the config asks for "
                         f"{cfg.standardize_internally}")

    l1 = cfg.lam * cfg.alpha
    l2 = cfg.lam * (1.0 - cfg.alpha)
    # The scalar steps run on Python floats, which round + - * / and abs
    # exactly as numpy float64 scalars do; the dot product stays an ndarray
    # one, so every coefficient equals the all-numpy loop's bit for bit.
    xy = setup.xy.tolist()
    diag = setup.diag.tolist()
    denom = [d + l2 for d in diag]
    rows = list(setup.gram)
    active = [j for j, d in enumerate(diag) if d != 0.0]  # constant columns stay at 0
    b = np.zeros(len(diag))
    coef = [0.0] * len(diag)  # b as Python floats

    sweeps = 0
    for sweep in range(cfg.max_iter):
        sweeps = sweep + 1
        max_delta = 0.0
        for j in active:
            old = coef[j]
            rho = xy[j] - float(rows[j] @ b) + diag[j] * old
            if rho > l1:
                new = (rho - l1) / denom[j]
            elif rho < -l1:
                new = (rho + l1) / denom[j]
            else:
                new = 0.0
            delta = abs(new - old)
            if delta > max_delta:
                max_delta = delta
            b[j] = new
            coef[j] = new
        if max_delta < cfg.tol:
            break

    coefficients = b / setup.scale
    intercept = setup.y_mean - float(coefficients @ setup.x_mean)
    return LinearModel(intercept=intercept, coefficients=coefficients, sweeps_used=sweeps)


def predict_linear(model: LinearModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[1] != len(model.coefficients):
        raise ValueError(
            f"width mismatch: model has {len(model.coefficients)} coefficients, "
            f"X has {X.shape[1]} columns")
    return model.intercept + X @ model.coefficients


def lambda_max(X, y, standardize: bool = True) -> float:
    """Smallest lam at which the alpha=1 (lasso) solution is all-zero slopes.

    Computed in the same working space the solver penalizes in.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    Xs, _, _ = _working_space(X, standardize)
    return float(np.max(np.abs(Xs.T @ (y - y.mean())))) / len(y)


DEFAULT_LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
DEFAULT_ALPHA_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
