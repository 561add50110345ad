import dataclasses
import hashlib
import json
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wqpanel import trees
from wqpanel.fieldtypes import to_json
from wqpanel.trees import (Ensemble, EnsembleKind, GBDTConfig, GossConfig, RFConfig,
                           RegressionTree, _bin, _bin_rows, _counted_quantile,
                           _grow, _rank, fit_gbdt, fit_gradient_tree, fit_random_forest,
                           fit_tree, goss_sample, predict_ensemble, predict_tree,
                           total_gain_importance)


def serialize_tree(tree: RegressionTree) -> str:
    return json.dumps(to_json(
        Ensemble(kind=EnsembleKind.GBDT, base_score=0.0, trees=(tree,),
                 learning_rate=1.0)), sort_keys=True)


def sse_split_oracle(x, y):
    """Exhaustive split enumeration: best (threshold, sse_reduction)."""
    best = (None, 0.0)
    for t in sorted(set(x))[:-1]:
        left = y[x <= t]
        right = y[x > t]
        sse = ((y - y.mean()) ** 2).sum()
        red = sse - ((left - left.mean()) ** 2).sum() - ((right - right.mean()) ** 2).sum()
        if red > best[1]:
            best = (t, red)
    return best


# ------------------------------------------------------------------ fit_tree

def test_depth_zero_leaf_is_mean():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 3))
    y = rng.standard_normal(20)
    tree = fit_tree(X, y, RFConfig(max_depth=0))
    assert tree.n_nodes == 1
    assert tree.value[0] == pytest.approx(float(np.mean(y)), abs=1e-12)
    np.testing.assert_allclose(predict_tree(tree, X), np.mean(y))


def test_gradient_leaf_is_minus_g_over_h():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((15, 2))
    g = rng.standard_normal(15)
    tree = fit_gradient_tree(X, g, GBDTConfig(max_depth=0, reg_lambda=0.0))
    assert tree.value[0] == pytest.approx(-g.sum() / len(g), abs=1e-12)


def test_step_function_split_matches_oracle():
    x = np.arange(0.1, 1.0, 0.1)
    y = (x > 0.5).astype(float)
    tree = fit_tree(x[:, None], y, RFConfig(max_depth=3))
    oracle_t, _ = sse_split_oracle(x, y)
    assert tree.feature[0] == 0
    assert 0.5 < tree.threshold[0] < 0.6
    # oracle threshold induces the same partition
    assert (x <= tree.threshold[0]).sum() == (x <= oracle_t).sum()
    preds = predict_tree(tree, x[:, None])
    np.testing.assert_allclose(preds, y)  # children pure


def test_constant_target_single_leaf():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((12, 2))
    tree = fit_tree(X, np.full(12, 1.7), RFConfig(max_depth=4))
    assert tree.n_nodes == 1


def test_accepted_split_gains_positive_and_leaf_weights_consistent():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((60, 3))
    g = rng.standard_normal(60)
    lam = 0.5
    tree = fit_gradient_tree(X, g, GBDTConfig(max_depth=4, reg_lambda=lam,
                                              min_child_weight=2.0))
    internal = tree.feature >= 0
    assert (tree.gain[internal] > 0).all()
    # recompute -G/(H+lam) per leaf from the routed rows
    leaf_of = {}
    idx = np.zeros(len(X), dtype=int)
    while True:
        feats = tree.feature[idx]
        active = np.nonzero(feats >= 0)[0]
        if len(active) == 0:
            break
        cur = idx[active]
        go_left = X[active, tree.feature[cur]] <= tree.threshold[cur]
        idx[active] = np.where(go_left, tree.left[cur], tree.right[cur])
    for leaf in np.unique(idx):
        rows = idx == leaf
        expected = -g[rows].sum() / (rows.sum() + lam)
        assert tree.value[leaf] == pytest.approx(expected, abs=1e-10)
        assert tree.n_samples[leaf] == rows.sum()


def test_histogram_saturated_bins_match_exact_mode():
    rng = np.random.default_rng(4)
    for trial in range(20):
        n = int(rng.integers(10, 60))
        # few distinct values so modest bins saturate
        X = rng.choice(np.linspace(0, 1, 12), size=(n, 2))
        y = rng.standard_normal(n)
        exact = fit_tree(X, y, RFConfig(max_depth=4, n_bins=10**9))
        histo = fit_tree(X, y, RFConfig(max_depth=4, n_bins=16))
        assert serialize_tree(exact) == serialize_tree(histo)


def test_histogram_coarse_bins_still_valid():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((200, 2))
    y = X[:, 0] + 0.1 * rng.standard_normal(200)
    tree = fit_tree(X, y, RFConfig(max_depth=3, n_bins=8))
    preds = predict_tree(tree, X)
    assert np.isfinite(preds).all()
    assert ((y - preds) ** 2).mean() < ((y - y.mean()) ** 2).mean()


def test_equal_gain_tie_breaks_to_lower_feature_and_threshold():
    # two identical columns: every split gain ties, feature 0 must win
    rng = np.random.default_rng(60)
    col = rng.standard_normal(30)
    X = np.column_stack([col, col])
    y = (col > 0).astype(float)
    tree = fit_tree(X, y, RFConfig(max_depth=2))
    assert (tree.feature[tree.feature >= 0] == 0).all()

    # dyadic fixture where thresholds 1.5 and 2.5 tie at gain 0.75 exactly
    x = np.array([1.0, 2.0, 3.0])
    y2 = np.array([0.0, 1.0, 2.0])
    tree2 = fit_tree(x[:, None], y2, RFConfig(max_depth=1))
    assert tree2.threshold[0] == pytest.approx(1.5)


def test_monotone_feature_transform_preserves_structure():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((50, 3))
    y = np.sin(X[:, 0]) + X[:, 1] * 0.5
    base = fit_tree(X, y, RFConfig(max_depth=4, n_bins=10**9))
    X2 = X.copy()
    X2[:, 0] = np.exp(X2[:, 0])  # rank-preserving
    other = fit_tree(X2, y, RFConfig(max_depth=4, n_bins=10**9))
    np.testing.assert_array_equal(base.feature, other.feature)
    np.testing.assert_array_equal(base.left, other.left)
    np.testing.assert_array_equal(base.n_samples, other.n_samples)
    np.testing.assert_allclose(base.value, other.value, atol=1e-12)


# ------------------------------------------------- exact-greedy oracle

def _candidate_thresholds(column, n_bins):
    """Split candidates for one feature, straight from the column: exact
    midpoints when the bins cover every distinct value, np.quantile
    boundaries otherwise."""
    distinct = np.unique(column)
    if len(distinct) <= 1:
        return np.empty(0)
    if len(distinct) <= n_bins:
        return (distinct[:-1] + distinct[1:]) / 2.0
    qs = np.arange(1, n_bins) / n_bins
    return np.unique(np.quantile(column, qs))


def oracle_bin(X, n_bins):
    """Bin X from its own columns: candidates per column, then one
    searchsorted of every value."""
    n, p = X.shape
    candidates = [_candidate_thresholds(X[:, f], n_bins) for f in range(p)]
    width = max((len(c) for c in candidates), default=0) + 1
    codes = np.empty((n, p), dtype=np.intp)
    for f, cand in enumerate(candidates):
        codes[:, f] = np.searchsorted(cand, X[:, f], side="left") + f * width
    return candidates, codes, width


def oracle_grow(X, g, w, max_depth, min_child_weight, reg_lambda, gamma,
                n_bins, rng=None, max_features=None):
    """The per-feature split search the histogram grower replaced: one
    searchsorted, two bincounts and a cumsum per node and feature. The
    hessian of squared error is 1, so H sums the row weights w."""
    n, p = X.shape
    candidates = [_candidate_thresholds(X[:, f], n_bins) for f in range(p)]
    wg = w * g
    feature, threshold, left, right, value, n_samples, gain = [], [], [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        n_samples.append(0)
        gain.append(0.0)
        return len(feature) - 1

    stack = [(new_node(), np.arange(n), 0)]
    while stack:
        node, rows, depth = stack.pop()
        G = float(wg[rows].sum())
        H = float(w[rows].sum())
        value[node] = -G / (H + reg_lambda) if (H + reg_lambda) > 0 else 0.0
        n_samples[node] = len(rows)
        if depth >= max_depth or len(rows) < 2:
            continue
        if max_features is not None and max_features < p:
            feats = np.sort(rng.choice(p, size=max_features, replace=False))
        else:
            feats = np.arange(p)
        parent_score = G * G / (H + reg_lambda) if (H + reg_lambda) > 0 else 0.0
        best_gain, best_feat, best_thr = 0.0, -1, np.nan
        for f in feats:
            cand = candidates[f]
            if len(cand) == 0:
                continue
            bins = np.searchsorted(cand, X[rows, f], side="left")
            gsum = np.bincount(bins, weights=wg[rows], minlength=len(cand) + 1)
            hsum = np.bincount(bins, weights=w[rows], minlength=len(cand) + 1)
            GL = np.cumsum(gsum)[:-1]
            HL = np.cumsum(hsum)[:-1]
            GR = G - GL
            HR = H - HL
            valid = (HL >= min_child_weight) & (HR >= min_child_weight) & (HL > 0) & (HR > 0)
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                gains = 0.5 * (GL**2 / (HL + reg_lambda) + GR**2 / (HR + reg_lambda)
                               - parent_score) - gamma
            gains[~valid] = -np.inf
            k = int(np.argmax(gains))
            if gains[k] > best_gain:
                best_gain, best_feat, best_thr = float(gains[k]), int(f), float(cand[k])
        if best_feat < 0 or best_gain <= 0.0:
            continue
        go_left = X[rows, best_feat] <= best_thr
        left_id, right_id = new_node(), new_node()
        feature[node], threshold[node] = best_feat, best_thr
        left[node], right[node], gain[node] = left_id, right_id, best_gain
        stack.append((left_id, rows[go_left], depth + 1))
        stack.append((right_id, rows[~go_left], depth + 1))

    return RegressionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int32), right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=float),
        n_samples=np.asarray(n_samples, dtype=np.int64),
        gain=np.asarray(gain, dtype=float))


def _columns(rng, n, kind):
    """An n x 5 design of one kind: continuous, with constant and 0/1
    one-hot columns, or coarsely rounded (many tied values and gains)."""
    X = rng.standard_normal((n, 5))
    if kind == "one_hot":
        X[:, 1] = 2.5
        X[:, 2:] = np.eye(3)[rng.integers(0, 3, n)]
    elif kind == "rounded":
        X = np.round(X)
    return X


GROW_CASES = [
    # (design kind, n_bins, max_depth, min_child_weight, reg_lambda, gamma, max_features)
    ("continuous", 256, 4, 1.0, 1.0, 0.0, None),
    ("continuous", 4, 5, 1.0, 0.0, 0.0, None),          # coarse bins
    ("continuous", 10**9, 3, 0.0, 0.0, 0.0, None),      # saturated: exact midpoints
    ("continuous", 256, 4, 0.0, 1.0, 0.05, 2),          # gamma > 0, max_features
    ("one_hot", 256, 6, 1.0, 1.0, 0.0, None),
    ("one_hot", 2, 4, 0.0, 0.0, 0.0, 3),
    ("rounded", 256, 4, 1.0, 0.0, 0.0, None),           # tied gains
    ("rounded", 3, 3, 2.0, 1.0, 0.01, 1),
    ("continuous", 256, 0, 1.0, 1.0, 0.0, None),        # max_depth 0
]


@pytest.mark.parametrize("case", GROW_CASES, ids=lambda c: "-".join(map(str, c)))
def test_grower_matches_exact_greedy_oracle(case):
    kind, n_bins, max_depth, mcw, lam, gamma, max_features = case
    rng = np.random.default_rng(GROW_CASES.index(case))
    for trial in range(8):
        n = int(rng.integers(1, 90)) if trial else 1  # trial 0: a single row
        X = _columns(rng, n, kind)
        y = np.round(rng.standard_normal(n), 1) if kind == "rounded" else rng.standard_normal(n)
        goss = trial % 2 == 1  # amplified GOSS weights on half the trials
        w = np.where(rng.random(n) < 0.5, 1.0, 0.8 / 0.3) if goss else np.ones(n)
        if trial % 3 == 2:  # arbitrary positive weights on a third of the trials
            w = w * rng.uniform(0.5, 2.0, n)
        params = dict(max_depth=max_depth, min_child_weight=mcw, reg_lambda=lam,
                      gamma=gamma, n_bins=n_bins, max_features=max_features)
        expected = oracle_grow(X, -y, w, rng=np.random.default_rng(trial), **params)
        actual = _grow(X, -y, w, rng=np.random.default_rng(trial), **params)
        assert serialize_tree(actual) == serialize_tree(expected), (case, trial)


@pytest.mark.parametrize("case", GROW_CASES, ids=lambda c: "-".join(map(str, c)))
def test_unit_weight_grower_matches_the_oracle(case):
    # no weights: H and the hessian bins count rows instead of summing ones
    kind, n_bins, max_depth, mcw, lam, gamma, max_features = case
    rng = np.random.default_rng(100 + GROW_CASES.index(case))
    for trial in range(6):
        n = int(rng.integers(1, 90)) if trial else 1
        X = _columns(rng, n, kind)
        g = np.round(rng.standard_normal(n), 1) if kind == "rounded" else rng.standard_normal(n)
        params = dict(max_depth=max_depth, min_child_weight=mcw, reg_lambda=lam,
                      gamma=gamma, n_bins=n_bins, max_features=max_features)
        expected = oracle_grow(X, g, np.ones(n), rng=np.random.default_rng(trial), **params)
        actual = _grow(X, g, None, rng=np.random.default_rng(trial), **params)
        assert serialize_tree(actual) == serialize_tree(expected), (case, trial)


def test_public_growers_match_the_oracle():
    rng = np.random.default_rng(31)
    X = _columns(rng, 70, "one_hot")
    y = rng.standard_normal(70)
    tree = fit_tree(X, y, RFConfig(max_depth=5, n_bins=8, max_features=3),
                    rng=np.random.default_rng(4))
    expected = oracle_grow(X, -y, np.ones(70), max_depth=5, min_child_weight=1.0,
                           reg_lambda=0.0, gamma=0.0, n_bins=8,
                           rng=np.random.default_rng(4), max_features=3)
    assert serialize_tree(tree) == serialize_tree(expected)

    rows, w = goss_sample(y, GossConfig(0.2, 0.3), np.random.default_rng(5))
    cfg = GBDTConfig(max_depth=3, min_child_weight=0.0, reg_lambda=1.0, gamma=0.1, n_bins=16)
    tree = fit_gradient_tree(X[rows], y[rows], cfg, weights=w)
    expected = oracle_grow(X[rows], y[rows], w, max_depth=3,
                           min_child_weight=0.0, reg_lambda=1.0, gamma=0.1, n_bins=16)
    assert serialize_tree(tree) == serialize_tree(expected)


def test_padding_past_last_candidate_is_never_a_split():
    # Feature 0 has one candidate and feature 1 has 39, so feature 0's row
    # of the histogram has 38 padding positions, where HL is the cumsum
    # total. With amplified GOSS weights that total is an ulp below the
    # pairwise H, so HR there is positive. A constant gradient with
    # reg_lambda 1 makes every real split lose (x^2 / (x + 1) is
    # superadditive), while the padding positions gain about 1e-16: only
    # the padding mask keeps the root a leaf.
    rng = np.random.default_rng(13)
    w = np.where(rng.random(40) < 0.5, 1.0, 0.8 / 0.3)
    X = np.column_stack([np.repeat([0.0, 1.0], 20), rng.standard_normal(40)])
    assert float(w.sum()) > np.cumsum(w)[-1]
    bins = _bin(X, 256)
    assert bins.n_candidates.tolist() == [1, 39] and bins.width == 40
    g = np.full(40, 0.7)
    cfg = GBDTConfig(max_depth=1, min_child_weight=0.0, reg_lambda=1.0)
    tree = fit_gradient_tree(X, g, cfg, weights=w)
    expected = oracle_grow(X, g, w, max_depth=1, min_child_weight=0.0,
                           reg_lambda=1.0, gamma=0.0, n_bins=256)
    assert expected.n_nodes == 1
    assert serialize_tree(tree) == serialize_tree(expected)


def test_leaves_route_like_predict_tree():
    rng = np.random.default_rng(33)
    X = _columns(rng, 120, "one_hot")
    g = rng.standard_normal(120)
    cfg = GBDTConfig(max_depth=4, n_bins=16)
    leaves = np.empty(120, dtype=np.intp)
    tree = fit_gradient_tree(X, g, cfg, bins=_bin(X, 16), leaves=leaves)
    assert serialize_tree(tree) == serialize_tree(fit_gradient_tree(X, g, cfg))
    assert (tree.feature[leaves] < 0).all()
    np.testing.assert_array_equal(tree.value[leaves], predict_tree(tree, X))


# ----------------------------------------- binning from one rank per fit

# -0.0 is folded into 0.0 here; columns holding both zeros have their own test
finite = st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: v + 0.0)


@st.composite
def tied_columns(draw):
    """A column of 1 to 120 values drawn from a pool of 1 to 200: few
    distinct values and heavy ties as often as nearly distinct ones."""
    pool = draw(st.lists(finite, min_size=1, max_size=draw(st.sampled_from([1, 2, 3, 8, 200]))))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=120))
    return np.array([pool[i] for i in picks])


@given(column=tied_columns(), n_bins=st.integers(1, 300),
       extra=st.lists(st.floats(0.0, 1.0), max_size=4))
@example(column=np.array([4.5]), n_bins=256, extra=[])
@example(column=np.array([-1.0, 3.0]), n_bins=256, extra=[0.5])
@example(column=np.array([3.0, 3.0]), n_bins=2, extra=[])
def test_counted_quantile_equals_np_quantile(column, n_bins, extra):
    qs = np.concatenate([np.arange(1, n_bins) / n_bins, extra, [0.0, 1.0]])
    distinct, counts = np.unique(column, return_counts=True)
    assert _counted_quantile(distinct, counts, qs).tobytes() == np.quantile(column, qs).tobytes()


def assert_bins_equal(actual, expected):
    candidates, codes, width = expected
    assert actual.width == width
    assert [c.tobytes() for c in actual.candidates] == [c.tobytes() for c in candidates]
    assert actual.n_candidates.tolist() == [len(c) for c in candidates]
    # within-feature codes, in the narrowest unsigned dtype that holds them
    assert actual.codes.dtype == np.min_scalar_type(width - 1)
    assert actual.codes.dtype.kind == "u"
    np.testing.assert_array_equal(
        actual.codes.astype(np.intp) + np.arange(codes.shape[1]) * width, codes)


def _binning_design(rng, n):
    """Continuous, rounded (tied), constant, all-0, all-1 and 0/1 one-hot
    columns."""
    return np.column_stack([rng.standard_normal(n),
                            np.round(rng.standard_normal(n), 1) + 0.0,
                            np.full(n, 2.5), np.zeros(n), np.ones(n),
                            np.eye(3)[rng.integers(0, 3, n)]])


def _rows(rng, n, kind):
    if kind == "all":
        return None
    if kind == "bootstrap":  # with repeats, unsorted
        return rng.integers(0, n, size=n)
    return np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))


@given(n=st.integers(1, 700), n_bins=st.integers(1, 256),
       kind=st.sampled_from(["all", "bootstrap", "goss"]), seed=st.integers(0, 2**32 - 1))
@example(n=1, n_bins=1, kind="bootstrap", seed=0)
@example(n=1, n_bins=256, kind="all", seed=0)
@example(n=600, n_bins=256, kind="bootstrap", seed=1)
@example(n=600, n_bins=255, kind="goss", seed=2)
def test_bin_rows_equals_binning_the_rows_directly(n, n_bins, kind, seed):
    rng = np.random.default_rng(seed)
    X = _binning_design(rng, n)
    rows = _rows(rng, n, kind)
    expected = oracle_bin(X if rows is None else X[rows], n_bins)
    assert_bins_equal(_bin_rows(_rank(X), rows, n_bins), expected)
    if rows is None:
        assert_bins_equal(_bin(X, n_bins), expected)


def test_signed_zero_columns_bin_like_the_oracle():
    # On `tricky`, which zero a quantile returns depends on where
    # np.quantile's partition leaves each zero: counted from the distinct
    # values alone, the n_bins=2 median comes out with the other sign.
    # Byte-equal candidates also compare == and route every row the same.
    tricky = np.array([-0.0, -0.0, 0.0, 2.0, 2.0, -1.0, 0.0, 1.0])
    rng = np.random.default_rng(40)
    mixed = rng.choice([-1.0, -0.0, 0.0, 0.0, 1.0, 2.0], size=60)
    one_hot = rng.choice([-0.0, 0.0, 1.0], size=60)  # not a plain 0/1 column
    for column in (tricky, mixed, one_hot):
        X = np.column_stack([column, rng.standard_normal(len(column))])
        ranked = _rank(X)
        assert list(ranked.signed_zeros) == [0]
        for n_bins in (1, 2, 3, 4, 256):
            for kind in ("all", "bootstrap", "goss"):
                rows = _rows(rng, len(column), kind)
                expected = oracle_bin(X if rows is None else X[rows], n_bins)
                assert_bins_equal(_bin_rows(ranked, rows, n_bins), expected)
    assert _rank(np.array([[-0.0], [-0.0], [1.0]])).signed_zeros == {}


def test_rank_equals_np_unique_of_each_column():
    # 0/1 columns are ranked without a sort; every column must rank as
    # np.unique ranks it, down to the sign of a zero among the values
    rng = np.random.default_rng(41)
    columns = [np.zeros(40), np.ones(40), rng.integers(0, 2, 40) + 0.0,
               np.full(40, -0.0), rng.choice([-0.0, 1.0], 40),
               rng.choice([-0.0, 0.0, 1.0], 40), rng.choice([0.0, 1.0, 2.0], 40),
               rng.choice([0.0, 1.0, np.nan], 40), rng.standard_normal(40)]
    for n in (0, 1, 2, 40):
        X = np.column_stack([c[:n] for c in columns])
        ranked = _rank(X)
        for f in range(X.shape[1]):
            distinct, inverse = np.unique(X[:, f], return_inverse=True)
            values = ranked.values[ranked.starts[f]:ranked.starts[f + 1]]
            assert values.tobytes() == distinct.tobytes(), (n, f)
            assert (ranked.ids[:, f] - ranked.starts[f]).tobytes() == \
                inverse.reshape(-1).astype(np.intp).tobytes(), (n, f)


def oracle_random_forest(X, y, cfg):
    """fit_random_forest with every tree grown by the exact-greedy oracle
    on candidates taken from its own bootstrap sample."""
    n = len(X)
    trees_ = []
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees):
        rng = np.random.default_rng(child)
        idx = rng.integers(0, n, size=n)
        trees_.append(oracle_grow(X[idx], -y[idx], np.ones(n),
                                  max_depth=cfg.max_depth,
                                  min_child_weight=cfg.min_samples_leaf, reg_lambda=0.0,
                                  gamma=0.0, n_bins=cfg.n_bins, rng=rng,
                                  max_features=cfg.max_features))
    return trees_


def oracle_goss(X, y, cfg):
    """GOSS fit_gbdt with every tree grown by the exact-greedy oracle on
    candidates taken from its own subset."""
    yhat = np.full(len(y), float(np.mean(y)))
    trees_ = []
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees):
        g = yhat - y
        rows, w = goss_sample(g, cfg.goss, np.random.default_rng(child))
        tree = oracle_grow(X[rows], g[rows], w, max_depth=cfg.max_depth,
                           min_child_weight=cfg.min_child_weight,
                           reg_lambda=cfg.reg_lambda, gamma=cfg.gamma, n_bins=cfg.n_bins)
        trees_.append(tree)
        yhat = yhat + cfg.learning_rate * predict_tree(tree, X)
    return trees_


@pytest.mark.parametrize("n_bins", [8, 256])
def test_forest_and_goss_trees_match_oracle_binning_of_their_rows(n_bins):
    rng = np.random.default_rng(41)
    X = np.column_stack([_columns(rng, 300, "one_hot"), np.round(rng.standard_normal(300), 1)])
    y = np.sin(X[:, 0]) + X[:, 2] + 0.1 * rng.standard_normal(300)
    rf = RFConfig(n_trees=6, max_depth=5, max_features=3, n_bins=n_bins, seed=7)
    assert [serialize_tree(t) for t in fit_random_forest(X, y, rf).trees] == \
        [serialize_tree(t) for t in oracle_random_forest(X, y, rf)]
    goss = GBDTConfig(n_trees=6, learning_rate=0.3, max_depth=3, n_bins=n_bins, seed=8,
                      goss=GossConfig(top_rate=0.2, other_rate=0.3))
    assert [serialize_tree(t) for t in fit_gbdt(X, y, goss).trees] == \
        [serialize_tree(t) for t in oracle_goss(X, y, goss)]


# ------------------------------------------- the forest grown as one batch

def loop_random_forest(X, y, cfg):
    """fit_random_forest as it grew its trees one at a time: one raw-target
    tree on each bootstrap sample (or on X), binned from one ranking of X,
    in seed order."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(X)
    ranked = _rank(X)
    full = None if cfg.bootstrap else _bin_rows(ranked, None, cfg.n_bins)
    params = dict(max_depth=cfg.max_depth, min_child_weight=cfg.min_samples_leaf,
                  reg_lambda=0.0, gamma=0.0, n_bins=cfg.n_bins, max_features=cfg.max_features)
    trees_ = []
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees):
        rng = np.random.default_rng(child)
        if cfg.bootstrap:
            idx = rng.integers(0, n, size=n)
            trees_.append(_grow(X[idx], -y[idx], None, rng=rng,
                                bins=_bin_rows(ranked, idx, cfg.n_bins), **params))
        else:
            trees_.append(_grow(X, -y, None, rng=rng, bins=full, **params))
    return trees_


def assert_trees_identical(actual, expected):
    assert len(actual) == len(expected)
    for i, (a, e) in enumerate(zip(actual, expected)):
        for field in dataclasses.fields(RegressionTree):
            got, want = getattr(a, field.name), getattr(e, field.name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), (i, field.name)
            assert got.tobytes() == want.tobytes(), (i, field.name)


class Scored(NamedTuple):
    """A node a step of the batch grower scores."""

    tree: int  # its tree's index in the forest
    width: int  # its tree's bin width
    cells: int  # the codes it gathers: rows x drawn features
    nbytes: int  # the bytes of its tree's codes


@pytest.fixture
def steps(monkeypatch):
    """Each step of the batch grower, as the nodes it scores."""
    seen = []
    search = trees._search

    def recording(step, split):
        seen.append([Scored(t.index, t.bins.width,
                            len(t.head.rows) * (t.bins.codes.shape[1] if t.head.feats is None
                                                else len(t.head.feats)),
                            t.bins.codes.nbytes)
                     for t in step])
        return search(step, split)

    monkeypatch.setattr(trees, "_search", recording)
    return seen


def growing_codes(steps):
    """At each step, the code bytes of every tree whose steps span it: a
    tree grows at least from its first step to its last."""
    span, nbytes = {}, {}
    for k, step in enumerate(steps):
        for node in step:
            span[node.tree] = (span.get(node.tree, (k,))[0], k)
            nbytes[node.tree] = node.nbytes
    return [[nbytes[i] for i, (first, last) in span.items() if first <= k <= last]
            for k in range(len(steps))]


def fit_forest_in_steps(X, y, cfg, steps):
    """fit_random_forest's trees, checking that each step was one node or
    held, counted at its largest node, no more codes than one node of
    every row and column, and that the trees growing at once held fewer
    code bytes than X's ranks take (intp per cell), bar one tree's."""
    steps.clear()
    forest = fit_random_forest(X, y, cfg).trees
    cap = X.shape[0] * X.shape[1]
    assert all(len(step) == 1 or len(step) * max(node.cells for node in step) <= cap
               for step in steps)
    budget = cap * np.dtype(np.intp).itemsize
    assert all(sum(held) < budget + max(held) for held in growing_codes(steps))
    return forest


@pytest.mark.parametrize("bootstrap", [True, False], ids=["bootstrap", "all-rows"])
@pytest.mark.parametrize("case", GROW_CASES, ids=lambda c: "-".join(map(str, c)))
def test_forest_equals_the_one_tree_at_a_time_loop(case, bootstrap, steps):
    kind, n_bins, max_depth, mcw, _, _, max_features = case
    rng = np.random.default_rng(200 + GROW_CASES.index(case))
    for trial in range(5):
        n = int(rng.integers(1, 90)) if trial else 1
        X = _columns(rng, n, kind)
        y = np.round(rng.standard_normal(n), 1) if kind == "rounded" else rng.standard_normal(n)
        cfg = RFConfig(n_trees=int(rng.integers(1, 13)), max_depth=max_depth,
                       min_samples_leaf=max(1, int(mcw)), max_features=max_features,
                       n_bins=n_bins, bootstrap=bootstrap, seed=trial)
        assert_trees_identical(fit_forest_in_steps(X, y, cfg, steps),
                               loop_random_forest(X, y, cfg))


@pytest.mark.parametrize("cfg", [
    RFConfig(n_trees=9, max_depth=6, min_samples_leaf=4, max_features=1, n_bins=8, seed=3),
    RFConfig(n_trees=9, max_depth=8, min_samples_leaf=3, bootstrap=False, n_bins=5, seed=4),
    RFConfig(n_trees=9, max_depth=5, max_features=2, n_bins=2, seed=5),
    RFConfig(n_trees=9, max_depth=5, n_bins=3, seed=6),
], ids=["leaf4-mf1", "leaf3-all-rows", "mf2-bins2", "bins3"])
def test_forest_on_signed_zero_columns_equals_the_loop(cfg, steps):
    # which zero a quantile returns depends on each sample's own column
    rng = np.random.default_rng(43)
    X = np.column_stack([rng.choice([-1.0, -0.0, 0.0, 0.0, 1.0, 2.0], 70),
                         rng.choice([-0.0, 0.0, 1.0], 70), rng.standard_normal(70)])
    y = X[:, 0] + X[:, 1] + 0.1 * rng.standard_normal(70)
    assert_trees_identical(fit_forest_in_steps(X, y, cfg, steps), loop_random_forest(X, y, cfg))


def test_forest_steps_mix_bin_widths_and_skip_a_tree_with_no_candidate(steps):
    # rows 0-9 are all zeros and rows 10 and 11 differ: a bootstrap sample
    # holds 1, 2 or 3 distinct rows, so its bin width is 1 (no candidate:
    # the tree is a leaf), 2 or 3
    X = np.zeros((12, 3))
    X[10] = [1.0, 0.0, 5.0]
    X[11] = [2.0, 0.0, -1.0]
    y = np.arange(12.0) + 4.0 * X[:, 0]
    cfg = RFConfig(n_trees=40, max_depth=4, max_features=2, seed=8)
    misses = [not np.isin([10, 11], np.random.default_rng(c).integers(0, 12, size=12)).any()
              for c in np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)]
    assert any(misses) and not all(misses)
    forest = fit_forest_in_steps(X, y, cfg, steps)
    assert_trees_identical(forest, loop_random_forest(X, y, cfg))
    assert [t.n_nodes for t, miss in zip(forest, misses) if miss] == [1] * sum(misses)
    assert any(len({node.width for node in step}) > 1 for step in steps)


def test_weighted_batch_equals_each_tree_grown_alone():
    # a forest batches unit weights with lam = gamma = 0; the grower takes
    # any batch, so check amplified weights, lam, gamma and zero
    # min_child_weight too, across trees of other sizes and designs
    rng = np.random.default_rng(46)
    inputs = []
    for i in range(8):
        n = int(rng.integers(2, 70))
        X = _columns(rng, n, ("continuous", "one_hot", "rounded")[i % 3])
        w = np.where(rng.random(n) < 0.5, 1.0, 0.8 / 0.3) * rng.uniform(0.5, 2.0, n)
        inputs.append((X, rng.standard_normal(n), w))
    for max_features in (None, 3):
        params = dict(max_depth=5, min_child_weight=0.0, reg_lambda=1.0, gamma=0.01)
        split = trees._Split(max_features=max_features, **params)
        batch = trees._grow_batch([(_bin(X, 16), g, w, np.random.default_rng(i), None)
                                   for i, (X, g, w) in enumerate(inputs)], split, max_cells=10**6)
        alone = [_grow(X, g, w, n_bins=16, rng=np.random.default_rng(i),
                       max_features=max_features, **params)
                 for i, (X, g, w) in enumerate(inputs)]
        assert_trees_identical(batch, alone)


@pytest.mark.parametrize("max_features, roots", [(2, 2), (None, 1)])
def test_forest_larger_than_the_step_cap_equals_the_loop(max_features, roots, steps):
    # a root gathers 60 rows x 2 drawn features (or all 5) of the 60 x 5
    # cap, so a step holds 2 roots (or 1), and more trees join as their
    # nodes shrink, until as many trees grow as their one-byte codes take
    # to fill the intp ranks of X
    rng = np.random.default_rng(45)
    X = _columns(rng, 60, "continuous")
    y = np.sin(X[:, 0]) + X[:, 2] + 0.1 * rng.standard_normal(60)
    cfg = RFConfig(n_trees=30, max_depth=10, max_features=max_features, n_bins=16, seed=9)
    forest = fit_forest_in_steps(X, y, cfg, steps)
    assert len(steps[0]) == roots
    assert max(map(len, steps)) > 2
    room = np.dtype(np.intp).itemsize
    assert max(map(len, growing_codes(steps))) == room
    # the next tree starts once one finishes, not once all have
    joins = min(k for k, step in enumerate(steps) if any(node.tree == room for node in step))
    assert any(node.tree < room for step in steps[joins:] for node in step)
    assert_trees_identical(forest, loop_random_forest(X, y, cfg))


# Byte digests of to_json, from the grower that grew one tree per
# call; a tree grown as a batch of one must not move them.
EXPORT_DIGESTS = {
    "plain": "717ba1480f503e08c29ed02e008cafa98e0772d4861c79d37ea666334aba24de",
    "leaves": "6a3c4738a83554dff3145e2938aabc6a81847e39f443337e8b46d50b610396bd",
    "goss": "f5f640fdbfbcdf72e3f501341eddfd3393c39052bb8352423f47651e507099d5",
    "forest": "bb6f2fd0f59d3f5463a2e5e125d814ec9778bed65e55c34ffec9c8d72057e735",
}


@pytest.mark.parametrize("fit", sorted(EXPORT_DIGESTS))
def test_fixed_seed_fits_keep_their_export_digest(fit):
    rng = np.random.default_rng(50)
    X = np.column_stack([rng.standard_normal((160, 3)), np.eye(3)[rng.integers(0, 3, 160)],
                         np.round(rng.standard_normal(160), 1)])
    y = np.sin(X[:, 0]) + X[:, 3] - 0.5 * X[:, 6] + 0.1 * rng.standard_normal(160)
    cfg = GBDTConfig(n_trees=8, learning_rate=0.3, max_depth=4, reg_lambda=1.0, gamma=0.01,
                     n_bins=32, seed=5)
    if fit == "plain":  # one unweighted tree, no leaves
        model = Ensemble(kind=EnsembleKind.GBDT, base_score=0.0, learning_rate=1.0,
                         trees=(fit_gradient_tree(X, y - y.mean(), cfg),))
    elif fit == "leaves":  # plain boosting reads each round's leaves
        model = fit_gbdt(X, y, cfg)
    elif fit == "goss":  # amplified row weights
        model = fit_gbdt(X, y, dataclasses.replace(cfg, goss=GossConfig(0.2, 0.3)))
    else:
        model = fit_random_forest(X, y, RFConfig(n_trees=12, max_depth=6, max_features=3,
                                                 n_bins=32, seed=6))
    export = json.dumps(to_json(model), sort_keys=True).encode()
    assert hashlib.sha256(export).hexdigest() == EXPORT_DIGESTS[fit]


@pytest.mark.parametrize("fit, cfg", [
    (fit_random_forest, RFConfig(n_trees=4, max_depth=3)),
    (fit_random_forest, RFConfig(n_trees=3, max_depth=3, bootstrap=False)),
    (fit_gbdt, GBDTConfig(n_trees=4, max_depth=2)),
    (fit_gbdt, GBDTConfig(n_trees=4, max_depth=2, goss=GossConfig(0.2, 0.3))),
], ids=["forest", "forest-no-bootstrap", "gbdt", "goss"])
def test_each_fit_ranks_its_columns_once(monkeypatch, fit, cfg):
    calls = []
    real = trees._rank

    def counting(X):
        calls.append(X.shape)
        return real(X)

    monkeypatch.setattr(trees, "_rank", counting)
    rng = np.random.default_rng(42)
    X = _columns(rng, 80, "one_hot")
    fit(X, rng.standard_normal(80), cfg)
    assert calls == [X.shape]


@pytest.mark.parametrize("reg_lambda", [0.0, 1.0])
def test_gbdt_leaf_yhat_equals_predict_ensemble_bitwise(monkeypatch, reg_lambda):
    # each round's gradient is yhat - y; yhat must be exactly the running
    # prediction predict_ensemble gives for the trees fitted so far
    rng = np.random.default_rng(34)
    X = _columns(rng, 150, "one_hot")
    y = np.sin(X[:, 0]) + X[:, 2] + 0.1 * rng.standard_normal(150)
    seen = []
    real = trees.fit_gradient_tree

    def recording(X_, g, *args, **kwargs):
        seen.append(g.copy())
        return real(X_, g, *args, **kwargs)

    monkeypatch.setattr(trees, "fit_gradient_tree", recording)
    cfg = GBDTConfig(n_trees=12, learning_rate=0.3, max_depth=3,
                     reg_lambda=reg_lambda, n_bins=32)
    model = fit_gbdt(X, y, cfg)
    assert len(seen) == cfg.n_trees
    for k, g in enumerate(seen):
        prefix = Ensemble(kind=EnsembleKind.GBDT, base_score=model.base_score,
                          trees=model.trees[:k], learning_rate=cfg.learning_rate)
        np.testing.assert_array_equal(g, predict_ensemble(prefix, X) - y)


# ------------------------------------------------------------------ GOSS

def test_goss_keep_everything():
    rng = np.random.default_rng(7)
    g = rng.standard_normal(10)
    idx, w = goss_sample(g, GossConfig(1.0, 0.0), rng)
    np.testing.assert_array_equal(idx, np.arange(10))
    np.testing.assert_array_equal(w, np.ones(10))


def test_goss_counts_and_amplification():
    rng = np.random.default_rng(8)
    g = np.arange(10, dtype=float)  # |g| increasing
    idx, w = goss_sample(g, GossConfig(0.2, 0.3), rng)
    assert len(idx) == 5
    assert set([8, 9]) <= set(idx.tolist())  # top-2 by |g|
    top_mask = np.isin(idx, [8, 9])
    np.testing.assert_array_equal(w[top_mask], 1.0)
    np.testing.assert_allclose(w[~top_mask], 0.8 / 0.3)
    assert (~top_mask).sum() == 3


def test_goss_ties_broken_by_lower_index():
    g = np.array([1.0, 2.0, 2.0, 2.0, 0.5])
    rng = np.random.default_rng(9)
    idx, w = goss_sample(g, GossConfig(0.4, 0.0), rng)  # top-2 of ties at |g|=2
    np.testing.assert_array_equal(idx, [1, 2])


def test_goss_b_zero_returns_only_top_set():
    g = np.linspace(1, 5, 10)
    idx, w = goss_sample(g, GossConfig(0.3, 0.0), np.random.default_rng(0))
    assert len(idx) == 3
    np.testing.assert_array_equal(w, np.ones(3))


def test_goss_expected_weighted_sum_preserved():
    rng = np.random.default_rng(10)
    g = rng.uniform(0.5, 3.0, 10)
    total = np.abs(g).sum()
    sums = []
    for _ in range(10_000):
        idx, w = goss_sample(g, GossConfig(0.2, 0.3), rng)
        sums.append(float((w * np.abs(g[idx])).sum()))
    assert np.mean(sums) == pytest.approx(total, rel=0.02)


def test_goss_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        goss_sample([], GossConfig(0.2, 0.1), rng)
    with pytest.raises(ValueError):
        GossConfig(top_rate=0.7, other_rate=0.7)
    with pytest.raises(ValueError):
        GossConfig(top_rate=1.2)


# ------------------------------------------------------------------ forest

def test_degenerate_forest_equals_plain_tree():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((40, 3))
    y = X[:, 0] - X[:, 2] + 0.1 * rng.standard_normal(40)
    forest = fit_random_forest(X, y, RFConfig(n_trees=1, max_depth=4,
                                              bootstrap=False, seed=5))
    tree = fit_tree(X, y, RFConfig(max_depth=4))
    np.testing.assert_array_equal(predict_ensemble(forest, X), predict_tree(tree, X))


def test_forest_prediction_within_tree_range():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((60, 3))
    y = rng.standard_normal(60)
    forest = fit_random_forest(X, y, RFConfig(n_trees=7, max_depth=3, seed=1,
                                              max_features=2))
    per_tree = np.stack([predict_tree(t, X) for t in forest.trees])
    mean = predict_ensemble(forest, X)
    assert (mean >= per_tree.min(axis=0) - 1e-12).all()
    assert (mean <= per_tree.max(axis=0) + 1e-12).all()


def test_forest_seeded_determinism_and_variation():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((50, 4))
    y = rng.standard_normal(50)
    cfg = RFConfig(n_trees=5, max_depth=3, seed=42, max_features=2)
    a = fit_random_forest(X, y, cfg)
    b = fit_random_forest(X, y, cfg)
    assert json.dumps(to_json(a), sort_keys=True) == \
        json.dumps(to_json(b), sort_keys=True)
    c = fit_random_forest(X, y, RFConfig(n_trees=5, max_depth=3, seed=43,
                                         max_features=2))
    assert json.dumps(to_json(a), sort_keys=True) != \
        json.dumps(to_json(c), sort_keys=True)


def test_rf_of_identical_trees_predicts_that_tree():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((30, 2))
    y = rng.standard_normal(30)
    tree = fit_tree(X, y, RFConfig(max_depth=2))
    forest = Ensemble(kind=EnsembleKind.RANDOM_FOREST, base_score=0.0,
                      trees=(tree,) * 4, learning_rate=1.0)
    np.testing.assert_allclose(predict_ensemble(forest, X), predict_tree(tree, X),
                               atol=1e-12)


# ------------------------------------------------------------------ GBDT

def test_single_stump_predicts_mean_exactly():
    # integer targets with a representable mean keep the zero-sum residual
    # identity exact in floating point
    rng = np.random.default_rng(15)
    X = rng.standard_normal((8, 2))
    y = np.array([1.0, 2.0, 3.0, 6.0, 2.0, 4.0, 5.0, 1.0])  # mean 3.0
    model = fit_gbdt(X, y, GBDTConfig(n_trees=1, max_depth=0, learning_rate=1.0,
                                      reg_lambda=0.0, min_child_weight=0.0))
    assert model.trees[0].value[0] == 0.0  # residuals of the mean sum to zero
    np.testing.assert_array_equal(predict_ensemble(model, X), np.full(8, 3.0))

    y2 = rng.standard_normal(25)
    X2 = rng.standard_normal((25, 2))
    model2 = fit_gbdt(X2, y2, GBDTConfig(n_trees=1, max_depth=0, learning_rate=1.0,
                                         reg_lambda=0.0, min_child_weight=0.0))
    np.testing.assert_allclose(predict_ensemble(model2, X2), np.mean(y2), atol=1e-12)


def test_training_rmse_monotone_non_increasing():
    rng = np.random.default_rng(16)
    X = rng.standard_normal((100, 3))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + 0.1 * rng.standard_normal(100)
    cfg = GBDTConfig(n_trees=100, learning_rate=0.3, max_depth=2, reg_lambda=0.0,
                     min_child_weight=1.0)
    model = fit_gbdt(X, y, cfg)
    yhat = np.full(len(y), model.base_score)
    last = float(np.sqrt(np.mean((y - yhat) ** 2)))
    for tree in model.trees:
        yhat = yhat + cfg.learning_rate * predict_tree(tree, X)
        rmse = float(np.sqrt(np.mean((y - yhat) ** 2)))
        assert rmse <= last + 1e-12
        last = rmse


@pytest.mark.parametrize("goss", [GossConfig(top_rate=1.0, other_rate=0.0),
                                  GossConfig(top_rate=0.0, other_rate=1.0)])
def test_goss_degenerate_matches_plain_gbdt(goss):
    rng = np.random.default_rng(17)
    X = rng.standard_normal((60, 3))
    y = X @ [1.0, -0.5, 0.2] + 0.05 * rng.standard_normal(60)
    base_cfg = dict(n_trees=12, learning_rate=0.2, max_depth=2, seed=3)
    plain = fit_gbdt(X, y, GBDTConfig(**base_cfg))
    sampled = fit_gbdt(X, y, GBDTConfig(goss=goss, **base_cfg))
    np.testing.assert_allclose(predict_ensemble(sampled, X),
                               predict_ensemble(plain, X), atol=1e-9)


def test_gbdt_with_goss_seeded_determinism():
    rng = np.random.default_rng(18)
    X = rng.standard_normal((50, 2))
    y = rng.standard_normal(50)
    cfg = GBDTConfig(n_trees=8, max_depth=2, seed=9,
                     goss=GossConfig(top_rate=0.2, other_rate=0.3))
    a = fit_gbdt(X, y, cfg)
    b = fit_gbdt(X, y, cfg)
    assert json.dumps(to_json(a), sort_keys=True) == \
        json.dumps(to_json(b), sort_keys=True)


def test_predict_empty_gbdt_is_base_score():
    model = Ensemble(kind=EnsembleKind.GBDT, base_score=0.42, trees=(),
                     learning_rate=0.5)
    np.testing.assert_array_equal(predict_ensemble(model, np.zeros((3, 2))),
                                  np.full(3, 0.42))


def test_predict_single_leaf_with_shrinkage():
    leaf = RegressionTree(
        feature=np.array([-1], dtype=np.int32), threshold=np.array([np.nan]),
        left=np.array([-1], dtype=np.int32), right=np.array([-1], dtype=np.int32),
        value=np.array([2.0]), n_samples=np.array([1]), gain=np.array([0.0]))
    model = Ensemble(kind=EnsembleKind.GBDT, base_score=1.0, trees=(leaf,),
                     learning_rate=0.5)
    np.testing.assert_array_equal(predict_ensemble(model, np.zeros((2, 1))),
                                  np.full(2, 2.0))


def test_total_gain_importance_targets_informative_feature():
    rng = np.random.default_rng(19)
    X = rng.standard_normal((200, 3))
    y = 2.0 * X[:, 1] + 0.01 * rng.standard_normal(200)
    model = fit_gbdt(X, y, GBDTConfig(n_trees=20, max_depth=2, reg_lambda=0.0))
    importance = total_gain_importance(model, 3)
    assert np.argmax(importance) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        GBDTConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        GBDTConfig(learning_rate=1.5)
    with pytest.raises(ValueError):
        RFConfig(n_trees=0)
    # a tree count is an integer: a float, even a whole one, or a bool is none
    for config, n_trees in ((RFConfig, 2.0), (RFConfig, True), (GBDTConfig, 2.0),
                            (GBDTConfig, True), (GBDTConfig, 0.0)):
        with pytest.raises(ValueError, match=f"n_trees must be an integer, got {n_trees!r}"):
            config(n_trees=n_trees)
    with pytest.raises(ValueError):
        fit_random_forest(np.zeros((4, 2)), np.zeros(4), RFConfig(max_features=5))
    with pytest.raises(ValueError, match="non-finite"):
        fit_gbdt(np.zeros((2, 1)), np.array([1.0, np.nan]), GBDTConfig(n_trees=1))
    # the forest checks its rows and targets itself: no tree is fit_tree's
    with pytest.raises(ValueError, match="at least one row"):
        fit_random_forest(np.zeros((0, 2)), np.zeros(0), RFConfig())
    with pytest.raises(ValueError, match="non-finite"):
        fit_random_forest(np.zeros((3, 1)), np.array([1.0, np.nan, 2.0]), RFConfig(n_trees=2))
    for field in ({"n_bins": 0}, {"max_depth": -1}):
        with pytest.raises(ValueError, match="max_depth >= 0 and n_bins >= 1"):
            RFConfig(**field)
