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
value's bin code (its count of candidates below it, in the narrowest
unsigned dtype) from one lookup per distinct value and a gather.

One grower grows a batch of trees: a random forest's trees side by side, and
a boosting round's tree as a batch of one. Each tree keeps its own
depth-first stack, pop order and feature draws, so it is the tree grown
alone. A step pops the next node due a split search from each tree and
scores them all with one gradient and one weight bincount over the codes
of their drawn features (with unit weights, a plain count), one prefix
sum along every (node, feature) histogram and one argmax per node over
its features and thresholds; the lowest feature index and then the
lowest threshold win ties. Rows are routed by their codes: x <= the k-th
candidate exactly when x's code is <= k. A step's nodes, counted at its
largest node's rows x drawn features, hold no more codes than one node of
every row and column of the fit, so the trees of a forest join the batch
as their nodes shrink. A tree starts only while the growing trees' codes
take fewer bytes than the fit's ranks of X (one intp per value), so at
most 8 one-byte-code trees grow at once on a 64-bit build, whatever the
forest's size.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Annotated, NamedTuple

import numpy as np

from .fieldtypes import Numbers, check_field_types

_INTS = Annotated[np.ndarray, Numbers(integral=True)]
_FLOATS = Annotated[np.ndarray, Numbers()]


@dataclass(frozen=True)
class RegressionTree:
    """Flat node arena. feature < 0 marks a leaf; routing is x[feature] <= threshold -> left."""

    feature: _INTS
    threshold: Annotated[np.ndarray, Numbers(finite=False)]  # NaN at a leaf
    left: _INTS
    right: _INTS
    value: _FLOATS
    n_samples: _INTS
    gain: _FLOATS

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


@dataclass(frozen=True)
class GossConfig:
    """Keep the top_rate fraction by |gradient|, sample other_rate of the rest."""

    top_rate: float = 0.2
    other_rate: float = 0.1

    def __post_init__(self):
        check_field_types(self)
        if not (0.0 <= self.top_rate <= 1.0 and 0.0 <= self.other_rate <= 1.0):
            raise ValueError("top_rate and other_rate must be in [0, 1]")
        if not 0.0 < self.top_rate + self.other_rate <= 1.0 + 1e-12:  # > 0: a tree needs a row
            raise ValueError("top_rate + other_rate must be > 0 and <= 1")


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
        check_field_types(self)
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
        check_field_types(self)
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

    codes[i, f] is the number of candidates of feature f below X[i, f], in
    the narrowest unsigned dtype that holds width - 1, where width is one
    more than the largest candidate count. The candidates of a feature are
    sorted, so x <= candidates[f][k] exactly when x's code is <= k: the
    codes route rows as the thresholds do.
    """

    candidates: tuple[np.ndarray, ...]
    n_candidates: np.ndarray
    codes: np.ndarray
    width: int

    @cached_property
    def real(self) -> np.ndarray:
        """real[f, k]: whether k < n_candidates[f], so position k of
        feature f's histogram is a candidate, not padding."""
        return np.arange(self.width) < self.n_candidates[:, None]


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
    lookup = np.empty(len(ranked.values), dtype=np.min_scalar_type(width - 1))
    for f, cand in enumerate(candidates):
        column = slice(starts[f], starts[f + 1])
        lookup[column] = np.searchsorted(cand, ranked.values[column], side="left")
    return _Bins(tuple(candidates), n_candidates, lookup[ids], width)


def _bin(X: np.ndarray, n_bins: int) -> _Bins:
    return _bin_rows(_rank(X), None, n_bins)


class _Split(NamedTuple):
    """The settings every tree of a batch shares."""

    max_depth: int
    min_child_weight: float
    reg_lambda: float
    gamma: float
    max_features: int | None


class _Head(NamedTuple):
    """A popped node whose split search is due."""

    node: int
    rows: np.ndarray
    depth: int
    feats: np.ndarray | None  # the drawn features, sorted; None: all
    wg: np.ndarray  # w * g of its rows
    w: np.ndarray | None  # w of its rows; None: unit weights
    G: float
    H: float
    cells: int  # the codes its search gathers: rows x drawn features


class _Growing:
    """One tree of a batch: its bins, row gradients and weights, feature
    draws, depth-first stack, node arena and ``head``, the node whose
    split search is due (None once the tree is grown)."""

    def __init__(self, index: int, bins: _Bins, g: np.ndarray, w: np.ndarray | None,
                 rng: np.random.Generator | None, leaves: np.ndarray | None):
        self.index, self.bins, self.w, self.rng, self.leaves = index, bins, w, rng, leaves
        # with unit weights G is the same sum of g, and H and every hessian
        # bin count rows, which their sums of ones equal exactly
        self.wg = np.asarray(g, dtype=float) if w is None else w * g
        # the node arena, the root first; a node is a leaf until it splits
        self.feature: list[int] = [-1]
        self.threshold: list[float] = [np.nan]
        self.left: list[int] = [-1]
        self.right: list[int] = [-1]
        self.value: list[float] = [0.0]
        self.n_samples: list[int] = [0]
        self.gain: list[float] = [0.0]
        self.stack = [(0, np.arange(len(bins.codes)), 0)]
        self.head: _Head | None = None

    def advance(self, split: _Split) -> None:
        """Pop nodes, setting each one's value and row count, until one is
        due a split search (it becomes ``head``) or the stack is empty."""
        self.head = None
        p = self.bins.codes.shape[1]
        while self.stack:
            node, rows, depth = self.stack.pop()
            if self.leaves is not None:
                self.leaves[rows] = node
            wg = self.wg[rows]
            w = None if self.w is None else self.w[rows]
            G = float(wg.sum())
            H = float(len(rows)) if w is None else float(w.sum())
            lam = split.reg_lambda
            self.value[node] = -G / (H + lam) if (H + lam) > 0 else 0.0
            self.n_samples[node] = len(rows)
            if depth >= split.max_depth or len(rows) < 2:
                continue
            feats = None
            if split.max_features is not None and split.max_features < p:
                feats = self.rng.choice(p, size=split.max_features, replace=False)
                feats.sort()
            if self.bins.width == 1:  # no feature has a candidate
                continue
            self.head = _Head(node, rows, depth, feats, wg, w, G, H,
                              len(rows) * (p if feats is None else len(feats)))
            return

    def split(self, feature: int, k: int, gain: float, go_left: np.ndarray) -> None:
        """Split ``head`` at candidate k of ``feature``; go_left marks its rows."""
        node, rows, depth = self.head.node, self.head.rows, self.head.depth
        left_id = len(self.feature)
        right_id = left_id + 1
        self.feature += (-1, -1)
        self.threshold += (np.nan, np.nan)
        self.left += (-1, -1)
        self.right += (-1, -1)
        self.value += (0.0, 0.0)
        self.n_samples += (0, 0)
        self.gain += (0.0, 0.0)
        self.feature[node] = feature
        self.threshold[node] = float(self.bins.candidates[feature][k])
        self.left[node] = left_id
        self.right[node] = right_id
        self.gain[node] = gain
        self.stack.append((left_id, rows[go_left], depth + 1))
        self.stack.append((right_id, rows[~go_left], depth + 1))

    def tree(self) -> RegressionTree:
        return RegressionTree(
            feature=np.asarray(self.feature, dtype=np.int32),
            threshold=np.asarray(self.threshold, dtype=float),
            left=np.asarray(self.left, dtype=np.int32),
            right=np.asarray(self.right, dtype=np.int32),
            value=np.asarray(self.value, dtype=float),
            n_samples=np.asarray(self.n_samples, dtype=np.int64),
            gain=np.asarray(self.gain, dtype=float),
        )


def _search(step: list[_Growing], split: _Split) -> None:
    """Score the head node of every tree in ``step`` at once and split each
    one whose best gain is positive.

    Slot s's drawn feature j fills histogram row (s * nf + j) of width W,
    so one gradient and one weight bincount fill every histogram. A node
    searched alone takes its tree's width. In a batch, row (s, j) starts
    at the slot's lowest code of feature j, and W is the widest such span:
    below it HL is 0, so no split is valid, and from its highest code up
    GL and HL stay the totals, so every gain there equals the highest
    code's and the lowest threshold still wins. bincount adds each bin in
    row order and cumsum runs along each row, so every prefix sum is the
    one a per-feature scan of that node computes; the empty bins it skips
    or adds add nothing. A row-major argmax over a slot's (feature,
    threshold) gains takes the lowest drawn feature and then the lowest
    threshold among the ties.
    """
    lam = split.reg_lambda
    S = len(step)
    heads = [t.head for t in step]
    blocks = []
    for t, h in zip(step, heads):
        block = t.bins.codes.take(h.rows, axis=0)
        blocks.append(block if h.feats is None else block[:, h.feats])
    stats = [(h.G, h.H, h.G * h.G / (h.H + lam) if (h.H + lam) > 0 else 0.0) for h in heads]
    nf = blocks[0].shape[1]
    if S == 1:
        # a node alone takes its tree's width and cached padding mask; the
        # windowed layout below is exact for it too, but costs a boosted
        # tree (always a batch of one) 7-34% more time
        [t], [h] = step, heads
        raw, wg, w = blocks[0], h.wg, h.w
        G, H, parent_score = stats[0]
        low, W = np.zeros(nf, dtype=np.intp), t.bins.width
        real = t.bins.real if h.feats is None else t.bins.real[h.feats]
    else:
        raw = np.concatenate(blocks)
        wg = np.concatenate([h.wg for h in heads])
        w = None if heads[0].w is None else np.concatenate([h.w for h in heads])
        G, H, parent_score = np.array(stats).T.reshape(3, S, 1, 1)
        n_candidates = np.array([t.bins.n_candidates if h.feats is None
                                 else t.bins.n_candidates[h.feats] for t, h in zip(step, heads)])
        lens = [len(block) for block in blocks]
        starts = list(itertools.accumulate(lens[:-1], initial=0))
        low = np.minimum.reduceat(raw, starts, axis=0)
        high = np.maximum.reduceat(raw, starts, axis=0)
        W = int((high - low).max()) + 1
        real = np.arange(W) < (n_candidates - low)[..., None]
    base = np.arange(S * nf).reshape(low.shape) * W - low
    codes = raw + (base if S == 1 else np.repeat(base, lens, axis=0))
    flat = codes.ravel()
    size = S * nf * W
    gsum = np.bincount(flat, weights=np.repeat(wg, nf), minlength=size)
    if w is None:
        hsum = np.bincount(flat, minlength=size)
    else:
        hsum = np.bincount(flat, weights=np.repeat(w, nf), minlength=size)
    GL = np.cumsum(gsum.reshape(S, nf, W), axis=2)
    HL = np.cumsum(hsum.reshape(S, nf, W), axis=2)
    GR = G - GL
    HR = H - HL
    # padding is masked explicitly: H is a pairwise sum, so HR past the
    # last candidate can be one ulp away from zero
    mcw = split.min_child_weight
    valid = (HL >= mcw) & (HR >= mcw)
    if not mcw > 0:  # only then does HL >= mcw leave out HL <= 0
        valid &= (HL > 0) & (HR > 0)
    valid &= real
    # 0.5 * (GL^2 / (HL + lam) + GR^2 / (HR + lam) - parent_score) - gamma,
    # in place; a zero lam or gamma is left out, which changes no valid gain
    if lam:
        HL = HL + lam
        HR += lam
    gains = np.square(GL)
    gains /= HL
    np.square(GR, out=GR)
    GR /= HR
    gains += GR
    gains -= parent_score
    gains *= 0.5
    if split.gamma:
        gains -= split.gamma
    np.copyto(gains, -np.inf, where=~valid)
    gains = gains.reshape(S, nf * W)
    lows = low.reshape(S, nf).tolist()
    for s, (t, h, block, b) in enumerate(zip(step, heads, blocks, np.argmax(gains, axis=1).tolist())):
        gain = gains.item(s, b)
        j, x = divmod(b, W)
        k = lows[s][j] + x
        if gain > 0.0:
            t.split(j if h.feats is None else int(h.feats[j]), k, gain, block[:, j] <= k)


def _grow_batch(inputs, split: _Split, max_cells: int = 0,
                max_bytes: int = 0) -> list[RegressionTree]:
    """Grow the trees of ``inputs``, one (bins, g, w, rng, leaves) each, in
    steps: a step pops the node due a split search from each tree in the
    batch and scores them all in one pass (``_search``).

    Every tree keeps its own depth-first stack, pop order and rng draws, so
    each is the tree grown on its own. w is None for every tree (unit
    weights) or for none; ``leaves``, when not None, receives the leaf
    node of every row. A step of S nodes whose largest gathers c codes
    (rows x drawn features) keeps S * c <= ``max_cells``, which bounds
    both the codes it gathers and its histograms (no wider than a node's
    rows), and holds at least one node. The trees that waited go first in
    the next step. ``inputs`` is read as trees start, so a tree is binned
    when it starts. A tree starts only while none waits and the growing
    trees' codes, each tree's counted as its own, total less than
    ``max_bytes`` (or no tree grows), so at most one started tree has yet
    to join a step, and the growing trees hold at most ``max_bytes`` of
    codes plus one tree's.
    """
    grown: dict[int, RegressionTree] = {}
    growing: list[_Growing] = []
    held = 0  # the growing trees' code bytes
    source = enumerate(inputs)
    started = False  # whether every tree of inputs has started

    def room(t: _Growing) -> bool:
        return not step or (len(step) + 1) * max(largest, t.head.cells) <= max_cells

    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            step, largest, waiting = [], 0, False
            for t in growing:
                if room(t):
                    step.append(t)
                    largest = max(largest, t.head.cells)
                else:
                    waiting = True
            while not started and not waiting and (not growing or held < max_bytes):
                item = next(source, None)
                if item is None:
                    started = True
                    break
                t = _Growing(item[0], *item[1])
                t.advance(split)
                if t.head is None:
                    grown[t.index] = t.tree()
                    continue
                growing.append(t)
                held += t.bins.codes.nbytes
                if not room(t):
                    break
                step.append(t)
                largest = max(largest, t.head.cells)
            if not step:
                return [grown[i] for i in range(len(grown))]
            _search(step, split)
            for t in step:
                t.advance(split)
                if t.head is None:
                    grown[t.index] = t.tree()
                    held -= t.bins.codes.nbytes
            # the trees that waited go first in the next step
            growing = ([t for t in growing if t.head is not None and t not in step]
                       + [t for t in step if t.head is not None])


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
    if bins is None:
        bins = _bin(X, n_bins)
    split = _Split(max_depth, min_child_weight, reg_lambda, gamma, max_features)
    [tree] = _grow_batch([(bins, g, w, rng, leaves)], split)
    return tree


def fit_tree(X, y, cfg: RFConfig, rng: np.random.Generator | None = None) -> RegressionTree:
    """Raw-target CART: greedy variance-reduction splits, mean leaf values,
    under cfg's max_depth, min_samples_leaf, max_features (drawn from
    ``rng``) and n_bins."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(X) < 1:
        raise ValueError("fit_tree requires at least one row")
    if not np.isfinite(y).all():
        raise ValueError("non-finite targets")
    return _grow(X, -y, None,
                 max_depth=cfg.max_depth, min_child_weight=cfg.min_samples_leaf,
                 reg_lambda=0.0, gamma=0.0, n_bins=cfg.n_bins,
                 rng=rng, max_features=cfg.max_features)


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
    """Bootstrap-resampled trees with per-split feature subsampling, grown
    as one batch; X is ranked once and each bootstrap sample binned from
    those ranks when its tree starts."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if cfg.max_features is not None and not 1 <= cfg.max_features <= p:
        raise ValueError(f"max_features must be in [1, {p}]")
    if n < 1:
        raise ValueError("fit_random_forest requires at least one row")
    if not np.isfinite(y).all():
        raise ValueError("non-finite targets")
    ranked = _rank(X)
    full = None if cfg.bootstrap else _bin_rows(ranked, None, cfg.n_bins)

    def inputs():
        for child in np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees):
            rng = np.random.default_rng(child)
            if cfg.bootstrap:
                idx = rng.integers(0, n, size=n)
                yield _bin_rows(ranked, idx, cfg.n_bins), -y[idx], None, rng, None
            else:
                yield full, -y, None, rng, None

    split = _Split(cfg.max_depth, cfg.min_samples_leaf, 0.0, 0.0, cfg.max_features)
    # a step's nodes, counted at its largest, gather no more codes than a
    # node of every row and column would, and the growing trees hold no
    # more codes than X's ranks take, bar one tree's
    trees = _grow_batch(inputs(), split, max_cells=n * p, max_bytes=ranked.ids.nbytes)
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
