"""Elastic-net linear regression, solved exactly by an active-set method.

Minimizes sum((y_i - x_i'b)^2) / (2n) + lam*(1-alpha)/2 * sum(b_j^2)
+ lam*alpha * sum(|b_j|) with an unpenalized intercept. Predictors are
standardized internally before penalization by default (coefficients are
mapped back to the original scale on return).

A fit is a set-up and a solve. prepare_fit checks the inputs and builds
everything no config changes: the working space (column means and scales),
the Gram matrix X'X/n, X'y/n and its diagonal. fit_elastic_net builds it
itself, or takes one made beforehand, so the tuner builds it once per fold
(and per standardize_internally value) and solves every config from it;
a shared set-up gives the same coefficients, bit for bit, as a fit from
scratch.

The solve is feature-sign search (Lee, Battle, Raina & Ng, NIPS 2006) on
Q = Gram + lam*(1-alpha)*I: from b = 0, each step signs the active
coefficients, solves their block of Q by one Cholesky solve and
line-searches to that solution, stopping where a coefficient reaches zero.
It ends exactly at the optimum, in a few steps for the few dozen columns
of a panel design. Where an active block of Q is singular (the lasso on a
complete one-hot block, whose columns sum to a constant), the fit is
instead cyclic coordinate descent from zero, the only path that tol
governs. The descent keeps its scalar steps on Python floats; IEEE
rounding of + - * / and abs is the same for them as for numpy float64
scalars, and the dot product with the Gram row is still an ndarray one, so
it gives the same coefficients, bit for bit, as a descent with all-numpy
steps. max_iter caps the steps of either path and sweeps_used counts them:
active-set steps, or descent sweeps. A fit cut short by max_iter before
it meets a singular block keeps its active-set iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .fieldtypes import Numbers, check_field_types


@dataclass(frozen=True)
class ElasticNetConfig:
    """One elastic-net fit. max_iter caps the steps of either path: the
    active-set steps, or the descent's sweeps over the columns. tol is the
    descent's stop rule (a sweep that moves no coefficient by tol or more
    is the last); the active-set path is exact and does not read it."""

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
    """A fitted linear model; sweeps_used counts the fit's active-set steps
    or descent sweeps."""

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
    """What a solve needs from (X, y) that no config changes.

    prepare_fit builds it; fit_elastic_net solves one config from it, so
    the configs of one fold can share it.
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


# A Cholesky pivot² at or below this share of its block's largest diagonal
# entry marks the block singular: the fit falls back to the descent.
_PIVOT_FLOOR = 1e-10


def fit_elastic_net(X, y, cfg: ElasticNetConfig,
                    setup: FitSetup | None = None) -> LinearModel:
    """The elastic-net fit of cfg: the active-set solve, or the descent
    where an active block is singular.

    Deterministic; stops at the optimum or after cfg.max_iter steps.
    ``setup`` is prepare_fit(X, y, cfg.standardize_internally) made
    beforehand; without it the set-up is built here.
    """
    if setup is None:
        setup = prepare_fit(X, y, cfg.standardize_internally)
    elif setup.standardize != cfg.standardize_internally:
        raise ValueError("setup was prepared with standardize="
                         f"{setup.standardize}, the config asks for "
                         f"{cfg.standardize_internally}")

    l1 = cfg.lam * cfg.alpha
    l2 = cfg.lam * (1.0 - cfg.alpha)
    solved = _active_set(setup, l1, l2, cfg.max_iter)
    b, steps = solved if solved is not None else _descent(setup, l1, l2, cfg)
    coefficients = b / setup.scale
    intercept = setup.y_mean - float(coefficients @ setup.x_mean)
    return LinearModel(intercept=intercept, coefficients=coefficients, sweeps_used=steps)


def _active_set(setup: FitSetup, l1: float, l2: float, max_iter: int):
    """Feature-sign search: (coefficients, steps), or None where an active
    block of Q = gram + l2*I is singular.

    Once b minimizes the objective on its support with its signs, every
    zero coefficient whose gradient exceeds l1 in size joins, signed
    against its gradient. A step solves the signed block and moves to the
    lowest objective among that solution and the points where a
    coefficient reaches zero, which leaves the support. Each step lowers
    the objective; if adding every such coefficient would not, the step
    adds the one with the largest gradient alone, which does. The search
    ends when no zero coefficient may join b at its optimum, or when no
    step lowers the objective there.
    """
    gram, xy = setup.gram, setup.xy
    can_join = setup.diag != 0.0  # constant columns stay at 0
    b = np.zeros(len(xy))
    steps, at_optimum = 0, True  # b = 0 is optimal on its empty support
    while steps < max_iter:
        grad = gram @ b + l2 * b - xy
        if at_optimum:
            joining = np.flatnonzero((b == 0.0) & can_join & (np.abs(grad) > l1))
            if not len(joining):
                break
            tries = [joining] if len(joining) == 1 else [
                joining, joining[[np.argmax(np.abs(grad[joining]))]]]
        else:
            tries = [np.empty(0, dtype=int)]
        for joining in tries:
            theta = np.sign(b)
            theta[joining] = -np.sign(grad[joining])
            block = np.flatnonzero(theta)
            x_block = _cholesky_solve(gram[np.ix_(block, block)] + l2 * np.eye(len(block)),
                                      xy[block] - l1 * theta[block])
            if x_block is None:
                return None
            target = np.zeros_like(b)
            target[block] = x_block
            change, new_b = _line_search(b, target, grad, gram, l1, l2)
            if change < 0.0:
                break
        else:  # no step lowers the objective
            if at_optimum:
                break
            at_optimum = True  # b is optimal on its support, to rounding
            continue
        # the solution is b's optimum unless a joiner came out of its sign
        at_optimum = (new_b is target and bool(np.all(x_block * theta[block] >= 0.0))
                      or not new_b.any())
        b, steps = new_b, steps + 1
    return b, steps


def _cholesky_solve(Q: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """x with Q x = rhs by Q's Cholesky factor, or None where Q is singular:
    the factorization fails or a pivot² is at most _PIVOT_FLOOR times Q's
    largest diagonal entry."""
    try:
        L = np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        return None
    if np.diag(L).min() ** 2 <= _PIVOT_FLOOR * np.diag(Q).max():
        return None
    return np.linalg.solve(L.T, np.linalg.solve(L, rhs))


def _line_search(b, target, grad, gram, l1: float, l2: float):
    """(change, point): of target and the points where a coefficient of b
    reaches zero on the way to it (set to exactly zero there), the one of
    lowest objective, and the objective's change from b to it. The change
    is summed from the step, not taken as a difference of two objectives,
    so a step too small to show in the objective keeps its sign. target
    wins a tie."""
    def change(point):
        d = point - b
        return (float(d @ (grad + 0.5 * (gram @ d + l2 * d)))
                + l1 * float((np.abs(point) - np.abs(b)).sum()))

    best = (change(target), target)
    flips = np.flatnonzero(np.sign(b) * np.sign(target) < 0.0)
    at = b[flips] / (b[flips] - target[flips])
    for t in np.unique(at):
        point = b + t * (target - b)
        point[flips[at == t]] = 0.0
        candidate = change(point)
        if candidate < best[0]:
            best = (candidate, point)
    return best


def _descent(setup: FitSetup, l1: float, l2: float, cfg: ElasticNetConfig):
    """Cyclic coordinate descent with soft-thresholding and Gram-matrix
    updates, from zero: (coefficients, sweeps). Converged when the largest
    coefficient change in a sweep drops below cfg.tol, or after
    cfg.max_iter sweeps."""
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
    return b, sweeps


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
