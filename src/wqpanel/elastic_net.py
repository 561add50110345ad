"""Elastic-net linear regression, solved exactly by an active-set method.

Minimizes sum((y_i - x_i'b)^2) / (2n) + lam*(1-alpha)/2 * sum(b_j^2)
+ lam*alpha * sum(|b_j|) with an unpenalized intercept. Predictors are
standardized internally before penalization by default (coefficients are
mapped back to the original scale on return).

A fit is a set-up and a solve. A set-up is everything no config changes:
the working space (column means and scales), the Gram matrix X'X/n, X'y/n
and its diagonal. One rule builds every set-up, prepare_folds: a fold's
comes from the sums of its training rows' columns, shifted by the column
means, taken as the sums over all rows less those over the rows it leaves
out (Chan, Golub & LeVeque, Am. Stat. 1983). So the set-ups of several CV
folds take one pass over the design, and each equals the one built from
its own rows to rounding. A column whose minimum is its maximum is
constant: it gets scale 1 and exactly zero Gram entries and X'y, so it
stays at 0. prepare_fit is the one fold that leaves no row out: the
set-up of a lone fit, of the winner's refit and of each retrain-SHAP
refit. A shared set-up gives the same coefficients, bit for bit, as a fit
from scratch on the same rows. fit_elastic_net builds the set-up itself,
or takes one made beforehand.

The solve is feature-sign search (Lee, Battle, Raina & Ng, NIPS 2006) on
Q = Gram + lam*(1-alpha)*I: from b = 0, each step signs the active
coefficients, solves their block of Q and line-searches to that solution,
stopping where a coefficient reaches zero. Where the block is singular (the
lasso on a complete one-hot block, whose columns sum to a constant), the
step instead runs along the block's null direction until a coefficient
reaches zero, as homotopy and LARS methods do (Osborne, Presnell & Turlach,
IMA J. Numer. Anal. 2000; Efron et al., Ann. Stat. 2004). The search ends
exactly at the optimum, in a few steps for the few dozen columns of a panel
design; max_iter caps its steps, and sweeps_used counts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Sequence

import numpy as np

from .fieldtypes import Numbers, check_field_types, learner_input


@dataclass(frozen=True)
class ElasticNetConfig:
    """One elastic-net fit. max_iter caps the active-set steps; the search
    is exact, so only max_iter can stop it short of the optimum."""

    lam: float = 1e-3
    alpha: float = 0.5
    max_iter: int = 1000
    standardize_internally: bool = True

    def __post_init__(self):
        check_field_types(self)
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class LinearModel:
    """A fitted linear model; sweeps_used counts the fit's active-set steps."""

    intercept: float
    coefficients: Annotated[np.ndarray, Numbers()]
    sweeps_used: int


@dataclass(frozen=True)
class FitSetup:
    """What a solve needs from (X, y) that no config changes.

    prepare_fit or prepare_folds builds it; fit_elastic_net solves one
    config from it, so the configs of one fold can share it.
    """

    standardize: bool
    x_mean: np.ndarray
    scale: np.ndarray
    y_mean: float
    gram: np.ndarray
    xy: np.ndarray
    diag: np.ndarray


def prepare_fit(X, y, standardize: bool) -> FitSetup:
    """Check (X, y) and build its set-up: prepare_folds' one fold of every
    row (np.size, as a 0-d y has no len and must reach the check)."""
    return prepare_folds(X, y, [np.arange(np.size(y))], standardize)[0]


def prepare_folds(X, y, folds: Sequence[np.ndarray], standardize: bool) -> list[FitSetup]:
    """Check (X, y) once (learner_input) and build the set-up of each fold,
    fold i training on the distinct rows folds[i], from one pass over the
    design. No row may be left out by two folds.

    With z = x - c for the column means c and w = y - mean(y), the sums
    Σz, Z'Z, Σw and Z'w over all rows, less the same sums over the rows a
    fold leaves out, are that fold's; _from_moments turns them into its
    means, scales, Gram matrix and X'y. Shifting first keeps the
    subtraction from cancelling (Chan, Golub & LeVeque, Am. Stat. 1983).
    A column is constant on a fold where its minimum there is its maximum,
    taken from the minima and maxima of the blocks the other folds leave
    out and of the rows no fold leaves out; these combine exactly. So a
    fold's set-up depends on (X, y, its rows) alone, never on the folds
    built with it. A fold the subtraction could cancel is built the same
    way from its own rows, which leave nothing out, so nothing is
    subtracted there.
    """
    X, y = learner_input(X, y)
    n = X.shape[0]
    left_out, covered = [], np.zeros(n, dtype=bool)
    for rows in folds:
        out = np.ones(n, dtype=bool)
        out[rows] = False
        if len(rows) + np.count_nonzero(out) != n:
            raise ValueError("a fold's training rows must be distinct")
        if len(rows) == 0:
            raise ValueError("a fold needs at least one row")
        if (covered & out).any():
            raise ValueError(f"fold {len(left_out)} leaves out a row that an earlier "
                             "fold leaves out; the folds' left-out rows must not overlap")
        covered |= out
        left_out.append(np.flatnonzero(out))

    c, y_shift = X.mean(axis=0), float(y.mean())
    w = y - y_shift
    total = _moments(X - c, w)
    blocks, spans = [], []
    for rows in left_out:
        block = X[rows]
        spans.append(_span(block))
        block -= c
        blocks.append(_moments(block, w[rows]))
    # the rows no fold leaves out: all of X, uncopied, for a fold of every row
    spans.append(_span(X[~covered] if covered.any() else X))
    setups, sum_squares = [], np.diag(total[1])
    for i, rows in enumerate(folds):
        others = spans[:i] + spans[i + 1:]
        constant = (np.min([lo for lo, _ in others], axis=0)
                    == np.max([hi for _, hi in others], axis=0))
        moments = [t - b for t, b in zip(total, blocks[i])]
        setups.append(_from_moments(len(rows), *moments, c, y_shift, constant, standardize,
                                    sum_squares if len(left_out[i]) else None)
                      or prepare_fit(X[rows], y[rows], standardize))
    return setups


def _span(block: np.ndarray):
    """Each column's minimum and maximum over the rows of block (inf and
    -inf over none)."""
    return block.min(axis=0, initial=np.inf), block.max(axis=0, initial=-np.inf)


def _moments(Z: np.ndarray, w: np.ndarray):
    """Σz, Z'Z, Σw and Z'w over the rows of Z and w."""
    return Z.sum(axis=0), Z.T @ Z, w.sum(), Z.T @ w


# The subtraction leaves a fold's sum of squared deviations of a column a
# rounding error of about 2 eps times the column's Σz² over all rows. Where
# that sum is at most this share of Σz², the error may pass 4.4e-11 of it,
# so prepare_folds builds the fold from its rows instead.
_CANCELLATION_FLOOR = 1e-5


def _from_moments(n: int, sz, szz, sw, szw, c, y_shift: float, constant,
                  standardize: bool, sum_squares) -> FitSetup | None:
    """The set-up of n rows from their sums of z = x - c and w = y - y_shift
    (_moments), a constant column getting scale 1 and exactly zero Gram
    entries and X'y, and a column whose spread underflows to 0 scale 1.
    Where the sums are totals less a left-out block's, sum_squares holds
    each column's Σz² over all rows, and the result is None where a
    column's spread is at most _CANCELLATION_FLOOR times it. Where nothing
    was subtracted, sum_squares is None and the result never is."""
    mean = sz / n
    cov = szz / n - np.outer(mean, mean)
    spread = np.diag(cov)[~constant]
    if sum_squares is not None and np.any(
            spread * n <= _CANCELLATION_FLOOR * sum_squares[~constant]):
        return None
    scale = np.ones(len(mean))
    if standardize:
        scale[~constant] = np.sqrt(spread, out=np.ones_like(spread), where=spread > 0.0)
    gram = cov / np.outer(scale, scale)
    xy = (szw - mean * sw) / n / scale
    gram[constant] = 0.0
    gram[:, constant] = 0.0
    xy[constant] = 0.0
    return FitSetup(
        standardize=standardize, x_mean=c + mean, scale=scale, y_mean=float(y_shift + sw / n),
        gram=gram, xy=xy, diag=np.diag(gram).copy())


# A Cholesky pivot² at or below this share of its block's largest diagonal
# entry marks the block singular.
_PIVOT_FLOOR = 1e-10


def fit_elastic_net(X, y, cfg: ElasticNetConfig,
                    setup: FitSetup | None = None) -> LinearModel:
    """The elastic-net fit of cfg by the active-set search.

    Deterministic; stops at the optimum or after cfg.max_iter steps.
    ``setup`` is prepare_fit(X, y, cfg.standardize_internally) or a fold's
    prepare_folds set-up, made beforehand, and then X and y are not read;
    without it the set-up is built here.
    """
    if setup is None:
        setup = prepare_fit(X, y, cfg.standardize_internally)
    elif setup.standardize != cfg.standardize_internally:
        raise ValueError("setup was prepared with standardize="
                         f"{setup.standardize}, the config asks for "
                         f"{cfg.standardize_internally}")

    l1 = cfg.lam * cfg.alpha
    l2 = cfg.lam * (1.0 - cfg.alpha)
    b, steps = _active_set(setup, l1, l2, cfg.max_iter)
    coefficients = b / setup.scale
    intercept = setup.y_mean - float(coefficients @ setup.x_mean)
    return LinearModel(intercept=intercept, coefficients=coefficients, sweeps_used=steps)


def _active_set(setup: FitSetup, l1: float, l2: float, max_iter: int):
    """Feature-sign search on Q = gram + l2*I: (coefficients, steps).

    Once b minimizes the objective on its support with its signs, every
    zero coefficient whose gradient exceeds l1 in size joins, signed
    against its gradient. A step takes the signed block's target
    (_block_target) and moves to the lowest objective among that target
    and the points where a coefficient reaches zero, which leaves the
    support. Each step lowers the objective; if adding every such
    coefficient would not, the step adds the one with the largest gradient
    alone, which does. The search ends when no zero coefficient may join b
    at its optimum, or when no step lowers the objective there.
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
            solved = _block_target(gram[np.ix_(block, block)] + l2 * np.eye(len(block)),
                                   xy[block] - l1 * theta[block], b[block])
            if solved is None:
                continue
            x_block, exact = solved
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
        # the target is b's optimum unless a joiner came out of its sign or
        # the step ran along a null direction
        at_optimum = (exact and new_b is target
                      and bool(np.all(x_block * theta[block] >= 0.0)) or not new_b.any())
        b, steps = new_b, steps + 1
    return b, steps


def _block_target(Q: np.ndarray, r: np.ndarray, b: np.ndarray):
    """Where a step on the signed block with matrix Q and right-hand side r
    goes from b, the block's coefficients (zero for a joiner): (x, exact),
    or None.

    A regular Q is solved by its Cholesky factor: Q x = r, and exact is
    True. Q is singular where the factorization fails or a pivot² is at
    most _PIVOT_FLOOR times Q's largest diagonal entry; a singular block
    with more than one joiner yields None, so the search joins the one with
    the largest gradient alone. Otherwise Q is scaled to a unit diagonal,
    and its eigenvalues within rounding of zero span its null space. If r
    has no part there beyond rounding (bounded by the eigenvalue gap, after
    Davis & Kahan), x is the least-norm solution and exact is True. If it
    has, the smooth part is flat along that part's direction d while the l1
    term falls, so x is b + t*d at the first t where a nonzero coefficient
    of b reaches zero (set to exactly zero there), and exact is False;
    where none does, None.
    """
    try:
        L = np.linalg.cholesky(Q)
        if np.diag(L).min() ** 2 > _PIVOT_FLOOR * np.diag(Q).max():
            return np.linalg.solve(L.T, np.linalg.solve(L, r)), True
    except np.linalg.LinAlgError:
        pass
    if np.count_nonzero(b == 0.0) > 1:
        return None
    s = 1.0 / np.sqrt(np.diag(Q))
    w, V = np.linalg.eigh(s[:, None] * Q * s)
    rounding = len(w) * np.finfo(float).eps * w[-1]
    null = w <= rounding
    noise = rounding / w[~null].min()  # the null space's error angle
    sr = s * r
    part = V[:, null] @ (V[:, null].T @ sr)
    if np.abs(part).max(initial=0.0) <= noise * np.abs(sr).max():
        kept = V[:, ~null]
        return s * (kept @ ((kept.T @ sr) / w[~null])), True
    part[np.abs(part) <= noise * np.abs(part).max()] = 0.0  # an eigenvector's rounding tail
    d = s * part
    hit = np.flatnonzero(b * d < 0.0)
    if not len(hit):
        return None
    at = -b[hit] / d[hit]
    x = b + at.min() * d
    x[hit[at == at.min()]] = 0.0
    return x, False


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


def predict_linear(model: LinearModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[1] != len(model.coefficients):
        raise ValueError(
            f"width mismatch: model has {len(model.coefficients)} coefficients, "
            f"X has {X.shape[1]} columns")
    return model.intercept + X @ model.coefficients


DEFAULT_LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
DEFAULT_ALPHA_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
