"""CART regression trees, random forest, and second-order gradient boosting.

Every tree fits squared error, so the hessian is 1 and a node's H is its
weighted row count. One grower serves both modes. Raw-target trees (CART /
random forest members) are grown on g = -y with lam = 0, where the split
gain reduces exactly to variance-reduction gain and leaf weights to target
means. Boosted trees use the gain

    1/2 * [G_L^2/(H_L+lam) + G_R^2/(H_R+lam) - (G_L+G_R)^2/(H_L+H_R+lam)] - gamma

with leaf weight -G/(H+lam).

Split candidates are per-feature: exact midpoints when n_bins covers every
distinct value (reproducing exact greedy splits), np.quantile's linear
quantile boundaries otherwise. Each fit ranks every column of X once. The
rows a tree is grown on (all of X for plain GBDT, once per fit; a
bootstrap sample or GOSS subset, once per tree, which takes its
candidates from its own rows) are then binned from counts of those
ranks: the candidates come from the counted distinct values, and every
value's bin code from one lookup per distinct value and a gather. A node is
scored with one gradient and one weight bincount over the codes of all
its drawn features (with unit weights, a plain count), prefix sums along
each feature, and an argmax per feature then across features; the lowest
threshold and then the lowest feature index win ties.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RegressionTree:
    """Flat node arena. feature < 0 marks a leaf; routing is x[feature] <= threshold -> left."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    gain: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


@dataclass(frozen=True)
class GossConfig:
    """Keep the top_rate fraction by |gradient|, sample other_rate of the rest."""

    top_rate: float = 0.2
    other_rate: float = 0.1

    def __post_init__(self):
        if not (0.0 <= self.top_rate <= 1.0 and 0.0 <= self.other_rate <= 1.0):
            raise ValueError("top_rate and other_rate must be in [0, 1]")
        if self.top_rate + self.other_rate > 1.0 + 1e-12:
            raise ValueError("top_rate + other_rate must be <= 1")


@dataclass(frozen=True)
class GBDTConfig:
    n_trees: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0
    gamma: float = 0.0
    n_bins: int = 256
    goss: GossConfig | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 0:
            raise ValueError("n_trees must be >= 0")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.max_depth < 0 or self.n_bins < 1:
            raise ValueError("max_depth >= 0 and n_bins >= 1 required")
        if self.min_child_weight < 0 or self.reg_lambda < 0 or self.gamma < 0:
            raise ValueError("min_child_weight, reg_lambda, gamma must be >= 0")


@dataclass(frozen=True)
class RFConfig:
    n_trees: int = 100
    max_depth: int = 10
    min_samples_leaf: int = 1
    max_features: int | None = None  # None: use all features
    bootstrap: bool = True
    n_bins: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth < 0 or self.n_bins < 1:
            raise ValueError("max_depth >= 0 and n_bins >= 1 required")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


class EnsembleKind(enum.Enum):
    RANDOM_FOREST = "random_forest"
    GBDT = "gbdt"


@dataclass(frozen=True)
class Ensemble:
    """GBDT predicts base_score + lr * sum(trees); RF predicts the tree mean."""

    kind: EnsembleKind
    base_score: float
    trees: tuple[RegressionTree, ...]
    learning_rate: float = 1.0


@dataclass(frozen=True)
class _Ranked:
    """Every column of X ranked once.

    Column f's sorted distinct values are values[starts[f]:starts[f + 1]],
    and ids[i, f] is the index in values of X[i, f], so one bincount over
    the ids of any rows counts the occurrences of every distinct value.
    signed_zeros keeps the raw column of each feature that holds both 0.0
    and -0.0: which of the two a zero quantile returns depends on where
    np.quantile's partition leaves each zero, so only the column itself
    reproduces it.
    """

    values: np.ndarray
    starts: np.ndarray
    ids: np.ndarray
    signed_zeros: dict[int, np.ndarray]


def _rank(X: np.ndarray) -> _Ranked:
    n, p = X.shape
    ids = np.empty((n, p), dtype=np.intp)
    columns = []
    starts = np.zeros(p + 1, dtype=np.intp)
    signed_zeros = {}
    for f in range(p):
        column = X[:, f]
        ones = column == 1.0
        if (ones | (column.view(np.uint64) == 0)).all():
            # only 1.0 and +0.0, as in a one-hot column: ranked without a sort
            has_zero = not ones.all()
            distinct = np.array([0.0, 1.0])[[has_zero, bool(ones.any())]]
            inverse = ones.astype(np.intp) if has_zero else np.zeros(n, dtype=np.intp)
        else:
            distinct, inverse = np.unique(column, return_inverse=True)
            negative = np.signbit(column[column == 0.0])
            if negative.any() and not negative.all():
                signed_zeros[f] = column
        ids[:, f] = inverse + starts[f]
        starts[f + 1] = starts[f] + len(distinct)
        columns.append(distinct)
    values = np.concatenate(columns) if columns else np.empty(0)
    return _Ranked(values, starts, ids, signed_zeros)


def _counted_quantile(distinct: np.ndarray, counts: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """np.quantile(column, qs) of the column that holds counts[j] copies of
    the sorted distinct value distinct[j], by the same linear-method
    arithmetic on the same pair of order statistics per q."""
    # the sorted column's entry at position i is the distinct value whose
    # cumulative count first exceeds i
    ends = np.cumsum(counts)
    virtual = (int(ends[-1]) - 1) * qs
    below = np.floor(virtual)
    gamma = virtual - below
    at = below.astype(np.intp)
    a = distinct[np.searchsorted(ends, at, side="right")]
    # q = 1 has no next entry; numpy interpolates the last one with itself
    b = distinct[np.minimum(np.searchsorted(ends, at + 1, side="right"), len(distinct) - 1)]
    diff = b - a
    out = a + diff * gamma
    upper = gamma >= 0.5
    out[upper] = (b - diff * (1 - gamma))[upper]
    return out


def _thresholds(distinct: np.ndarray, counts: np.ndarray, n_bins: int,
                column: np.ndarray | None = None) -> np.ndarray:
    """Split candidates of one feature from its sorted distinct values and
    their counts: exact midpoints when the bins cover every distinct value,
    quantile boundaries otherwise. ``column``, the raw values, is given
    only for a column holding both signed zeros (see ``_Ranked``); its
    midpoints do not depend on the sign of zero, its quantiles do."""
    if len(distinct) <= 1:
        return np.empty(0)
    if len(distinct) <= n_bins:
        return (distinct[:-1] + distinct[1:]) / 2.0
    qs = np.arange(1, n_bins) / n_bins
    if column is not None:
        return np.unique(np.quantile(column, qs))
    return np.unique(_counted_quantile(distinct, counts, qs))


@dataclass(frozen=True)
class _Bins:
    """Split candidates of every feature and the bin code of every value.

    codes[i, f] = f * width + (number of candidates of feature f below
    X[i, f]), so one bincount over a node's codes fills the histograms of
    all its features; width is one more than the largest candidate count.
    """

    candidates: tuple[np.ndarray, ...]
    n_candidates: np.ndarray
    codes: np.ndarray
    width: int


def _bin_rows(ranked: _Ranked, rows: np.ndarray | None, n_bins: int) -> _Bins:
    """Bin the rows ``rows`` of the ranked matrix (all rows when None), in
    that order: a tree grown on X[rows] takes its candidates from them."""
    ids = ranked.ids if rows is None else ranked.ids[rows]
    counts = np.bincount(ids.ravel(), minlength=len(ranked.values))
    starts = ranked.starts
    candidates = []
    for f in range(ids.shape[1]):
        column = slice(starts[f], starts[f + 1])
        present = counts[column] > 0
        raw = ranked.signed_zeros.get(f)
        if raw is not None and rows is not None:
            raw = raw[rows]
        candidates.append(_thresholds(ranked.values[column][present],
                                      counts[column][present], n_bins, raw))
    n_candidates = np.array([len(c) for c in candidates], dtype=np.intp)
    width = int(n_candidates.max(initial=0)) + 1
    # the code of every distinct value, then one gather by id
    lookup = np.empty(len(ranked.values), dtype=np.intp)
    for f, cand in enumerate(candidates):
        column = slice(starts[f], starts[f + 1])
        lookup[column] = np.searchsorted(cand, ranked.values[column], side="left") + f * width
    return _Bins(tuple(candidates), n_candidates, lookup[ids], width)


def _bin(X: np.ndarray, n_bins: int) -> _Bins:
    return _bin_rows(_rank(X), None, n_bins)


def _grow(X: np.ndarray, g: np.ndarray, w: np.ndarray | None,
          max_depth: int, min_child_weight: float, reg_lambda: float,
          gamma: float, n_bins: int,
          rng: np.random.Generator | None = None,
          max_features: int | None = None,
          bins: _Bins | None = None,
          leaves: np.ndarray | None = None) -> RegressionTree:
    """Grow one tree on X with row weights w (None: every weight 1), binned
    here unless ``bins`` is given; ``leaves``, when given, receives the leaf
    node of every row of X."""
    n, p = X.shape
    if bins is None:
        bins = _bin(X, n_bins)
    width = bins.width
    # positions past a feature's last candidate are padding, never a split
    padding = np.arange(width - 1) >= bins.n_candidates[:, None]
    # with unit weights G is the same sum of g, and H and every hessian
    # bin count rows, which their sums of ones equal exactly
    wg = np.asarray(g, dtype=float) if w is None else w * g

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    n_samples: list[int] = []
    gain: list[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        n_samples.append(0)
        gain.append(0.0)
        return len(feature) - 1

    root = new_node()
    stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(n), 0)]
    with np.errstate(divide="ignore", invalid="ignore"):
        while stack:
            node, rows, depth = stack.pop()
            if leaves is not None:
                leaves[rows] = node
            G = float(wg[rows].sum())
            H = float(len(rows)) if w is None else float(w[rows].sum())
            value[node] = -G / (H + reg_lambda) if (H + reg_lambda) > 0 else 0.0
            n_samples[node] = len(rows)
            if depth >= max_depth or len(rows) < 2:
                continue

            if max_features is not None and max_features < p:
                feats = np.sort(rng.choice(p, size=max_features, replace=False))
            else:
                feats = np.arange(p)
            if width == 1:  # no feature has a candidate
                continue

            # Histograms of every drawn feature at once. bincount adds each
            # bin in row order and cumsum runs along each feature's row, so
            # every prefix sum is the one a per-feature scan computes.
            nf = len(feats)
            codes = bins.codes[rows] if nf == p else bins.codes[rows][:, feats]
            flat = codes.ravel()
            gsum = np.bincount(flat, weights=np.repeat(wg[rows], nf), minlength=p * width)
            if w is None:
                hsum = np.bincount(flat, minlength=p * width)
            else:
                hsum = np.bincount(flat, weights=np.repeat(w[rows], nf), minlength=p * width)
            GL = np.cumsum(gsum.reshape(p, width)[feats], axis=1)[:, :-1]
            HL = np.cumsum(hsum.reshape(p, width)[feats], axis=1)[:, :-1]
            GR = G - GL
            HR = H - HL
            parent_score = G * G / (H + reg_lambda) if (H + reg_lambda) > 0 else 0.0
            # padding is masked explicitly: H is a pairwise sum, so HR past
            # the last candidate can be one ulp away from zero
            valid = ((HL >= min_child_weight) & (HR >= min_child_weight)
                     & (HL > 0) & (HR > 0) & ~padding[feats])
            gains = 0.5 * (GL**2 / (HL + reg_lambda) + GR**2 / (HR + reg_lambda)
                           - parent_score) - gamma
            gains[~valid] = -np.inf
            ks = np.argmax(gains, axis=1)  # first max: lowest threshold wins ties
            feat_gains = gains[np.arange(nf), ks]
            i = int(np.argmax(feat_gains))  # first max: lowest feature index wins ties
            if not feat_gains[i] > 0.0:
                continue
            best_feat = int(feats[i])
            best_thr = float(bins.candidates[best_feat][ks[i]])
            go_left = X[rows, best_feat] <= best_thr
            left_id = new_node()
            right_id = new_node()
            feature[node] = best_feat
            threshold[node] = best_thr
            left[node] = left_id
            right[node] = right_id
            gain[node] = float(feat_gains[i])
            stack.append((left_id, rows[go_left], depth + 1))
            stack.append((right_id, rows[~go_left], depth + 1))

    return RegressionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=float),
        n_samples=np.asarray(n_samples, dtype=np.int64),
        gain=np.asarray(gain, dtype=float),
    )


def fit_tree(X, y, cfg: RFConfig, rng: np.random.Generator | None = None, *,
             bins: _Bins | None = None) -> RegressionTree:
    """Raw-target CART: greedy variance-reduction splits, mean leaf values,
    under cfg's max_depth, min_samples_leaf, max_features and n_bins.

    ``bins`` (``_bin(X, cfg.n_bins)``) skips binning X again.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(X) < 1:
        raise ValueError("fit_tree requires at least one row")
    if not np.isfinite(y).all():
        raise ValueError("non-finite targets")
    return _grow(X, -y, None,
                 max_depth=cfg.max_depth, min_child_weight=cfg.min_samples_leaf,
                 reg_lambda=0.0, gamma=0.0, n_bins=cfg.n_bins,
                 rng=rng, max_features=cfg.max_features, bins=bins)


def fit_gradient_tree(X, g, cfg: GBDTConfig, weights: np.ndarray | None = None, *,
                      bins: _Bins | None = None,
                      leaves: np.ndarray | None = None) -> RegressionTree:
    """Gradient-mode tree on gradients g: second-order gain, leaf weight
    -G/(H+lam), under cfg's max_depth, min_child_weight, reg_lambda, gamma
    and n_bins.

    ``bins`` (``_bin(X, cfg.n_bins)``) skips binning X again; ``leaves``
    receives the leaf node of every row of X.
    """
    X = np.asarray(X, dtype=float)
    if len(X) < 1:
        raise ValueError("fit_gradient_tree requires at least one row")
    w = None if weights is None else np.asarray(weights, dtype=float)
    return _grow(X, g, w,
                 max_depth=cfg.max_depth, min_child_weight=cfg.min_child_weight,
                 reg_lambda=cfg.reg_lambda, gamma=cfg.gamma, n_bins=cfg.n_bins,
                 bins=bins, leaves=leaves)


def predict_tree(tree: RegressionTree, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    idx = np.zeros(len(X), dtype=np.int64)
    while True:
        feats = tree.feature[idx]
        active = np.nonzero(feats >= 0)[0]
        if len(active) == 0:
            break
        cur = idx[active]
        go_left = X[active, tree.feature[cur]] <= tree.threshold[cur]
        idx[active] = np.where(go_left, tree.left[cur], tree.right[cur])
    return tree.value[idx]


def goss_sample(gradients, cfg: GossConfig,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Gradient-based one-side sampling.

    Keeps the ceil(top_rate * n) rows with the largest |gradient| at weight
    1 (ties broken by lower row index) and draws ceil(other_rate * n) of
    the remaining rows uniformly without replacement at weight
    (1 - top_rate) / other_rate. Returns (row indices ascending, weights).
    With other_rate = 0 only the top set is returned.
    """
    mags = np.abs(np.asarray(gradients, dtype=float))
    n = len(mags)
    if n < 1:
        raise ValueError("goss_sample requires at least one row")

    order = np.argsort(-mags, kind="stable")
    n_top = int(np.ceil(cfg.top_rate * n))
    top = order[:n_top]
    rest = order[n_top:]
    if cfg.other_rate == 0.0 or len(rest) == 0:
        idx = np.sort(top)
        return idx, np.ones(len(idx))

    n_other = min(int(np.ceil(cfg.other_rate * n)), len(rest))
    sampled = rng.choice(rest, size=n_other, replace=False)
    amplification = (1.0 - cfg.top_rate) / cfg.other_rate
    idx = np.concatenate([top, sampled])
    weights = np.concatenate([np.ones(len(top)), np.full(len(sampled), amplification)])
    ascending = np.argsort(idx)
    return idx[ascending], weights[ascending]


def fit_random_forest(X, y, cfg: RFConfig) -> Ensemble:
    """Bootstrap-resampled trees with per-split feature subsampling; X is
    ranked once and each bootstrap sample binned from those ranks."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if cfg.max_features is not None and not 1 <= cfg.max_features <= p:
        raise ValueError(f"max_features must be in [1, {p}]")
    ranked = _rank(X)
    full = None if cfg.bootstrap else _bin_rows(ranked, None, cfg.n_bins)
    trees = []
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees):
        rng = np.random.default_rng(child)
        if cfg.bootstrap:
            idx = rng.integers(0, n, size=n)
            trees.append(fit_tree(X[idx], y[idx], cfg, rng=rng,
                                  bins=_bin_rows(ranked, idx, cfg.n_bins)))
        else:
            trees.append(fit_tree(X, y, cfg, rng=rng, bins=full))
    return Ensemble(kind=EnsembleKind.RANDOM_FOREST, base_score=0.0,
                    trees=tuple(trees), learning_rate=1.0)


def fit_gbdt(X, y, cfg: GBDTConfig) -> Ensemble:
    """Second-order boosting of squared error, optionally GOSS-sampled.

    Per round: g_i = yhat_i - y_i (the hessian is 1); fit a gradient tree (on the
    GOSS subset with amplification weights when enabled) and advance the
    predictions by learning_rate * tree(X). X is ranked once; each GOSS
    subset is binned from those ranks. Without GOSS every round fits on X,
    so X is binned once and tree(X) is the value of the leaf each row
    reached while the tree grew.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(X) < 1:
        raise ValueError("fit_gbdt requires at least one row")
    if not np.isfinite(y).all():
        raise ValueError("non-finite targets")
    base = float(np.mean(y))
    yhat = np.full(len(y), base)
    trees = []
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees) if cfg.n_trees else []
    ranked = _rank(X)
    bins = _bin_rows(ranked, None, cfg.n_bins) if cfg.goss is None else None
    leaves = np.empty(len(X), dtype=np.intp)
    for child in seeds:
        g = yhat - y
        if cfg.goss is not None:
            rows, w = goss_sample(g, cfg.goss, np.random.default_rng(child))
            tree = fit_gradient_tree(X[rows], g[rows], cfg, weights=w,
                                     bins=_bin_rows(ranked, rows, cfg.n_bins))
            step = predict_tree(tree, X)
        else:
            tree = fit_gradient_tree(X, g, cfg, bins=bins, leaves=leaves)
            step = tree.value[leaves]
        trees.append(tree)
        yhat = yhat + cfg.learning_rate * step
    return Ensemble(kind=EnsembleKind.GBDT, base_score=base,
                    trees=tuple(trees), learning_rate=cfg.learning_rate)


def predict_ensemble(model: Ensemble, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if model.kind == EnsembleKind.GBDT:
        out = np.full(len(X), model.base_score)
        for tree in model.trees:
            out = out + model.learning_rate * predict_tree(tree, X)
        return out
    preds = np.stack([predict_tree(t, X) for t in model.trees])
    return preds.mean(axis=0)


def total_gain_importance(model: Ensemble, n_features: int) -> np.ndarray:
    """Summed split gain per feature over every tree in the ensemble."""
    total = np.zeros(n_features)
    for tree in model.trees:
        internal = tree.feature >= 0
        np.add.at(total, tree.feature[internal], tree.gain[internal])
    return total
