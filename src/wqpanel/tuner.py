"""k-fold cross-validated grid search with timing capture, and the design
matrices it searches over.

A grid is a plain mapping of hyperparameter name to its values (an
axis), and grid_configs is the one rule that enumerates its configs.
All randomness flows from one run seed through named sub-seeds, and each
(config, fold) fit gets a seed derived from the fold and the config's seed
key (fit_seed_keys), so parallel and serial execution are
interchangeable. A task is one fold: it builds every config of the grid
for that fold, then fits them all through the family's registry
fit_fold hook.
"""

from __future__ import annotations

import enum
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .families import ModelFamily, get_family
from .features import (DesignMatrix, StandardizationParams, Strategy,
                       StrategyConfig, assemble_design, fit_standardizer,
                       numeric_block)
from .metrics import score
from .panel import PanelDataset, stack_panel
from .serialize import PipelineState

# named sub-seed tags: every component draws randomness from the run seed
# through one of these, so each is independently reproducible
TAG_FOLD = 1
TAG_FIT = 2
TAG_SHAP_BACKGROUND = 3


def subseed(seed: int, *tags: int) -> int:
    """Derive an independent child seed from the run seed and integer tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


class FoldScheme(enum.Enum):
    SHUFFLED = "shuffled"
    BLOCKED_BY_TIME = "blocked_by_time"


@dataclass(frozen=True)
class CVConfig:
    k: int = 5
    seed: int = 0
    scheme: FoldScheme = FoldScheme.SHUFFLED

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")


def grid_configs(axes: Mapping[str, Sequence]) -> list[dict]:
    """The configs of a grid: the cartesian product of its named axes, the
    last axis varying fastest. An empty axis gives no configs."""
    return [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]


def fit_seed_keys(axes: Mapping[str, Sequence], prefix_axis: str | None = None) -> list[int]:
    """Each config's fit-seed key, in grid_configs order: its row-major
    index over the axes other than prefix_axis. Configs that differ only on
    that axis share a key, and so a fit seed; without the axis, or with one
    value on it, a config's key is its own index."""
    sizes = [1 if name == prefix_axis else len(values) for name, values in axes.items()]
    keys = []
    for position in itertools.product(*map(range, map(len, axes.values()))):
        key = 0
        for name, i, size in zip(axes, position, sizes):
            key = key * size + (0 if name == prefix_axis else i)
        keys.append(key)
    return keys


def grid_plan(family_name: str, axes: Mapping[str, Sequence]
              ) -> tuple[ModelFamily, list[dict], list[int]]:
    """The family, the configs of the grid ``axes`` and their fit-seed
    keys under the family's prefix axis; a grid name the family does not
    know, or a grid of no configs, is a ValueError."""
    family = get_family(family_name)
    unknown = set(axes) - set(family.param_names)
    if unknown:
        raise ValueError(f"grid names {sorted(unknown)} invalid for family "
                         f"{family_name!r} (valid: {sorted(family.param_names)})")
    configs = grid_configs(axes)
    if not configs:
        raise ValueError("empty hyperparameter grid")
    return family, configs, fit_seed_keys(axes, family.prefix_axis)


@dataclass
class TuningResult:
    """Grid-search outcome for one family, timing included."""

    family: str
    best_config: dict
    best_index: int
    mean_scores: tuple[float, ...]
    fold_scores: tuple[tuple[float, ...], ...]
    total_fits: int
    tuning_time: float
    average_tuning: float
    best_fit_time: float
    best_model: Any = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        """Deterministic portion (excludes wall-clock timing)."""
        return {
            "family": self.family,
            "best_config": self.best_config,
            "best_index": self.best_index,
            "mean_scores": list(self.mean_scores),
            "fold_scores": [list(f) for f in self.fold_scores],
            "total_fits": self.total_fits,
        }

    def timing_dict(self) -> dict:
        return {
            "family": self.family,
            "total_fits": self.total_fits,
            "tuning_time": self.tuning_time,
            "average_tuning": self.average_tuning,
            "best_fit_time": self.best_fit_time,
        }


def kfold_split(n: int, cfg: CVConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition 0..n-1 into k validation folds (sizes differ by at most 1).

    shuffled permutes by seed before chunking; blocked_by_time chunks the
    row order as given (stacked rows are date-major, so blocks respect
    time order).
    """
    if n < cfg.k:
        raise ValueError(f"cannot make {cfg.k} folds from {n} rows")
    if cfg.scheme == FoldScheme.SHUFFLED:
        order = np.random.default_rng(np.random.SeedSequence([cfg.seed])).permutation(n)
    else:
        order = np.arange(n)
    chunks = np.array_split(order, cfg.k)
    folds = []
    for i, chunk in enumerate(chunks):
        val = np.sort(chunk)
        train = np.sort(np.concatenate([c for j, c in enumerate(chunks) if j != i]))
        folds.append((train, val))
    return folds


class FitFailedError(RuntimeError):
    """A fit inside the search failed; the message identifies the config."""


_POOL_CTX: dict = {}


def _pool_init(family_name, configs, seed_keys, X, y, folds, seed):
    _POOL_CTX.update(family=get_family(family_name), configs=configs, seed_keys=seed_keys,
                     X=X, y=y, folds=folds, seed=seed)


def _pool_task(fi: int) -> list[tuple[int, int, float]]:
    """(config, fold, score) of every config on fold ``fi``. Every config
    is built before any fit, so an invalid one fails first; then the
    family's fit_fold hook fits them all."""
    ctx = _POOL_CTX
    family = ctx["family"]
    train_idx, val_idx = ctx["folds"][fi]
    X_train, y_train = ctx["X"][train_idx], ctx["y"][train_idx]
    X_val, y_val = ctx["X"][val_idx], ctx["y"][val_idx]
    out = []
    try:
        cfgs = []
        for ci, params in enumerate(ctx["configs"]):
            cfgs.append(family.config(params, subseed(ctx["seed"], TAG_FIT,
                                                      ctx["seed_keys"][ci], fi)))
        models = family.fit_fold(X_train, y_train, cfgs)
        for ci in range(len(cfgs)):
            out.append((ci, fi, score(y_val, family.predict(next(models), X_val))))
    except Exception as exc:
        raise FitFailedError(f"{family.name} fit failed for config {ctx['configs'][ci]} "
                             f"on fold {fi}: {exc}") from exc
    return out


def grid_search(family_name: str, axes: Mapping[str, Sequence], X, y, cv: CVConfig,
                seed: int = 0, n_jobs: int = 1) -> TuningResult:
    """Exhaustive config x fold search, over the configs of the grid
    ``axes`` (grid_plan), scored by negative validation RMSE.

    The winner is the config with the maximum mean score (ties: earliest
    in grid enumeration order), refit on the full training data under its
    seed key. Wall times are captured for the whole search and the winning
    refit.
    """
    family, configs, seed_keys = grid_plan(family_name, axes)

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    folds = kfold_split(len(y), cv)
    k = len(folds)

    scores = np.full((len(configs), k), np.nan)
    t0 = time.perf_counter()
    if n_jobs > 1:
        # imported here: a one-job run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_jobs, initializer=_pool_init,
                                 initargs=(family_name, configs, seed_keys, X, y, folds, seed)) as pool:
            results = list(pool.map(_pool_task, range(k)))
    else:
        _pool_init(family_name, configs, seed_keys, X, y, folds, seed)
        results = [_pool_task(fi) for fi in range(k)]
    for ci, fi, s in itertools.chain.from_iterable(results):
        scores[ci, fi] = s
    tuning_time = time.perf_counter() - t0
    fits_executed = len(configs) * k  # (config, fold) cells, however fits were shared

    mean_scores = scores.mean(axis=1)
    best_index = int(np.argmax(mean_scores))  # first max: earliest config wins ties

    t1 = time.perf_counter()
    best_model = family.fit(X, y, family.config(configs[best_index],
                                                subseed(seed, TAG_FIT, seed_keys[best_index], k)))
    best_fit_time = time.perf_counter() - t1

    return TuningResult(
        family=family_name,
        best_config=configs[best_index],
        best_index=best_index,
        mean_scores=tuple(float(s) for s in mean_scores),
        fold_scores=tuple(tuple(float(v) for v in row) for row in scores),
        total_fits=fits_executed,
        tuning_time=tuning_time,
        average_tuning=tuning_time / fits_executed,
        best_fit_time=best_fit_time,
        best_model=best_model,
    )


def prepare_designs(train_panel: PanelDataset,
                    strategy_cfg: StrategyConfig) -> tuple[DesignMatrix, PipelineState]:
    """The training design matrix and the state that rebuilds it.

    The standardizer and the site vocabulary are fit on the training panel;
    design_from_state applies the same state to any other panel.
    """
    train_stacked = stack_panel(train_panel)
    numeric_names, numeric = numeric_block(train_stacked, strategy_cfg)
    params: StandardizationParams | None = None
    if strategy_cfg.strategy in (Strategy.STANDARDIZED_NUMERIC,
                                 Strategy.STANDARDIZED_PLUS_CATEGORICAL):
        params = fit_standardizer(numeric)
    site_vocab = train_panel.site_ids
    train_design = assemble_design(train_stacked, strategy_cfg, params, site_vocab)
    state = PipelineState(
        strategy=strategy_cfg,
        numeric_names=tuple(numeric_names),
        column_names=train_design.column_names,
        kinds=train_design.kinds,
        groups=train_design.groups,
        standardizer=params,
        site_vocabulary=site_vocab,
    )
    return train_design, state


def design_from_state(state: PipelineState, panel: PanelDataset) -> DesignMatrix:
    """Rebuild the design matrix a stored model was trained against."""
    design = assemble_design(stack_panel(panel), state.strategy, state.standardizer,
                             state.site_vocabulary)
    if design.column_names != state.column_names:
        raise ValueError("rebuilt design columns do not match the stored model; "
                         "was the schema or panel changed since tuning?")
    return design

