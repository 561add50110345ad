"""k-fold cross-validated grid search with timing capture, and the
end-to-end tuning/evaluation pipeline.

All randomness flows from one run seed through named sub-seeds, and each
(config, fold) fit gets a seed derived from its indices, so parallel and
serial execution are interchangeable.
"""

from __future__ import annotations

import enum
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .elastic_net import DEFAULT_ALPHA_GRID, DEFAULT_LAMBDA_GRID
from .families import get_family
from .features import (StandardizationParams, Strategy, StrategyConfig,
                       assemble_design, fit_standardizer, numeric_block)
from .metrics import MetricReport, evaluate, fit_benchmark, score
from .panel import PanelDataset, stack_panel
from .reporting import ResultsTable, build_results_table, persist_pipeline_result
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


@dataclass(frozen=True)
class HyperGrid:
    """Named parameter axes; their cartesian product defines the configs."""

    axes: dict[str, tuple]

    def __post_init__(self):
        for name, values in self.axes.items():
            if len(values) == 0:
                raise ValueError(f"grid axis {name!r} is empty")

    def configs(self) -> list[dict]:
        names = list(self.axes)
        return [dict(zip(names, combo))
                for combo in itertools.product(*self.axes.values())]

    def __len__(self) -> int:
        out = 1
        for values in self.axes.values():
            out *= len(values)
        return out


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


def _pool_init(family_name, configs, X, y, folds, seed):
    _POOL_CTX.update(family=get_family(family_name), configs=configs,
                     X=X, y=y, folds=folds, seed=seed)


def _pool_task(task: tuple[int, int]) -> tuple[int, int, float]:
    ci, fi = task
    ctx = _POOL_CTX
    train_idx, val_idx = ctx["folds"][fi]
    try:
        model = ctx["family"].fit(ctx["X"][train_idx], ctx["y"][train_idx],
                                  ctx["configs"][ci],
                                  subseed(ctx["seed"], TAG_FIT, ci, fi))
        pred = ctx["family"].predict(model, ctx["X"][val_idx])
    except Exception as exc:
        raise FitFailedError(
            f"{ctx['family'].name} fit failed for config {ctx['configs'][ci]} "
            f"on fold {fi}: {exc}") from exc
    return ci, fi, score(ctx["y"][val_idx], pred)


def grid_search(family_name: str, grid: HyperGrid, X, y, cv: CVConfig,
                seed: int = 0, n_jobs: int = 1) -> TuningResult:
    """Exhaustive config x fold search scored by negative validation RMSE.

    The winner is the config with the maximum mean score (ties: earliest
    in grid enumeration order), refit on the full training data. Wall
    times are captured for the whole search and the winning refit.
    """
    family = get_family(family_name)
    unknown = set(grid.axes) - set(family.param_names)
    if unknown:
        raise ValueError(f"grid names {sorted(unknown)} invalid for family "
                         f"{family_name!r} (valid: {sorted(family.param_names)})")
    configs = grid.configs()
    if not configs:
        raise ValueError("empty hyperparameter grid")

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    folds = kfold_split(len(y), cv)
    k = len(folds)
    tasks = [(ci, fi) for ci in range(len(configs)) for fi in range(k)]

    scores = np.full((len(configs), k), np.nan)
    fits_executed = 0
    t0 = time.perf_counter()
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs, initializer=_pool_init,
                                 initargs=(family_name, configs, X, y, folds, seed)) as pool:
            for ci, fi, s in pool.map(_pool_task, tasks, chunksize=8):
                scores[ci, fi] = s
                fits_executed += 1
    else:
        _pool_init(family_name, configs, X, y, folds, seed)
        for task in tasks:
            ci, fi, s = _pool_task(task)
            scores[ci, fi] = s
            fits_executed += 1
    tuning_time = time.perf_counter() - t0

    mean_scores = scores.mean(axis=1)
    best_index = int(np.argmax(mean_scores))  # first max: earliest config wins ties

    t1 = time.perf_counter()
    best_model = family.fit(X, y, configs[best_index],
                            subseed(seed, TAG_FIT, best_index, k))
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


def prepare_designs(train_panel: PanelDataset, test_panel: PanelDataset,
                    strategy_cfg: StrategyConfig):
    """Stack both panels and assemble strategy-consistent design matrices.

    The standardizer and the site vocabulary are fit on the training panel
    only and reused for the test panel.
    """
    train_stacked = stack_panel(train_panel)
    test_stacked = stack_panel(test_panel)
    numeric_names, numeric = numeric_block(train_stacked, strategy_cfg)
    params: StandardizationParams | None = None
    if strategy_cfg.strategy in (Strategy.STANDARDIZED_NUMERIC,
                                 Strategy.STANDARDIZED_PLUS_CATEGORICAL):
        params = fit_standardizer(numeric)
    site_vocab = train_panel.site_ids
    train_design = assemble_design(train_stacked, strategy_cfg, params, site_vocab)
    test_design = assemble_design(test_stacked, strategy_cfg, params, site_vocab)
    state = PipelineState(
        strategy=strategy_cfg,
        numeric_names=tuple(numeric_names),
        column_names=train_design.column_names,
        kinds=train_design.kinds,
        groups=train_design.groups,
        standardizer=params,
        site_vocabulary=site_vocab,
    )
    return train_design, test_design, state


@dataclass
class PipelineResult:
    strategy: int
    results_table: ResultsTable
    tuning: dict[str, TuningResult]
    metric_reports: dict[str, MetricReport]
    importances: dict[str, dict[str, float] | None]
    pipeline_state: PipelineState
    total_time: float


def run_pipeline(train_panel: PanelDataset, test_panel: PanelDataset,
                 strategy_cfg: StrategyConfig, family_grids: dict[str, HyperGrid],
                 cv: CVConfig, seed: int, n_jobs: int = 1,
                 out_dir=None) -> PipelineResult:
    """The full tuning procedure for one strategy.

    In order: fix the scoring function (negative RMSE), take the grids,
    start the clock, look up the model families, tune each by
    cross-validated grid search, predict the held-out test panel with the
    winners, compute the five metrics, stop the clock, extract feature
    importances, and persist everything (when out_dir is given).
    """
    train_design, test_design, state = prepare_designs(train_panel, test_panel,
                                                       strategy_cfg)
    t0 = time.perf_counter()

    tuning: dict[str, TuningResult] = {}
    for name, grid in family_grids.items():
        tuning[name] = grid_search(name, grid, train_design.X, train_design.y,
                                   cv, seed=seed, n_jobs=n_jobs)

    reports: dict[str, MetricReport] = {}
    benchmark = fit_benchmark(train_design.y)
    reports["benchmark"] = evaluate(test_design.y, benchmark.predict(test_design.X))
    for name, result in tuning.items():
        family = get_family(name)
        pred = family.predict(result.best_model, test_design.X)
        reports[name] = evaluate(test_design.y, pred)

    total_time = time.perf_counter() - t0

    importances: dict[str, dict[str, float] | None] = {}
    for name, result in tuning.items():
        raw = get_family(name).importance(result.best_model, test_design.n_cols)
        if raw is None:
            importances[name] = None
        else:
            importances[name] = {col: float(v)
                                 for col, v in zip(test_design.column_names, raw)}

    table = build_results_table(reports)
    result = PipelineResult(
        strategy=int(strategy_cfg.strategy),
        results_table=table,
        tuning=tuning,
        metric_reports=reports,
        importances=importances,
        pipeline_state=state,
        total_time=total_time,
    )
    if out_dir is not None:
        persist_pipeline_result(result, out_dir, seed)
    return result


# Default tuning grids, sized so that config count x 5 folds lands on the
# per-family fit budgets used for the timing summaries (150 / 2000 / 5760 /
# 1200 / 40). Contents are run-config defaults, not contracts.
DEFAULT_GRIDS: dict[str, dict[str, list]] = {
    "elastic_net": {
        "lam": list(DEFAULT_LAMBDA_GRID),
        "alpha": list(DEFAULT_ALPHA_GRID),
    },  # 30 configs
    "gbdt_goss": {
        "n_trees": [100, 200, 300, 400, 500],
        "learning_rate": [0.01, 0.05, 0.1, 0.2],
        "max_depth": [3, 4, 5, 6],
        "top_rate": [0.1, 0.2, 0.3, 0.4, 0.5],
    },  # 400 configs
    "gbdt": {
        "n_trees": [100, 200, 300, 400],
        "learning_rate": [0.01, 0.05, 0.1, 0.2],
        "max_depth": [3, 4, 5, 6],
        "min_child_weight": [1.0, 3.0, 5.0],
        "reg_lambda": [0.0, 0.5, 1.0],
        "gamma": [0.0, 0.1],
    },  # 1152 configs
    "random_forest": {
        "n_trees": [100, 200, 300, 400, 500],
        "max_depth": [4, 6, 8, 10],
        "min_samples_leaf": [1, 2, 4],
        "max_features": [3, 5, 7, 11],
    },  # 240 configs
    "mlp": {
        "hidden_layers": [[32], [64], [64, 32], [128, 64]],
        "activation": ["relu", "tanh"],
    },  # 8 configs
}


def default_grid(family_name: str) -> HyperGrid:
    axes = DEFAULT_GRIDS.get(family_name)
    if axes is None:
        raise ValueError(f"no default grid for family {family_name!r}")
    return HyperGrid(axes={k: tuple(v) for k, v in axes.items()})
