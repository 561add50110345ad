"""k-fold cross-validated grid search with timing capture, and the design
matrices it searches over: prepare_designs fits the design spec
(features.PipelineState) on the training panel and builds its design;
design_from_state builds any other panel's design under a stored spec.

A grid is a plain mapping of hyperparameter name to its values (an
axis), and grid_configs is the one rule that enumerates its configs.
All randomness flows from one run seed through named sub-seeds, and each
(config, fold) fit gets a seed derived from the fold and the config's seed
key (fit_seed_keys), so parallel and serial execution are
interchangeable. A task is a chunk of folds (fold_chunks): all k with one
job, else one of min(n_jobs, k) contiguous chunks. It builds every
config of the grid for each of its folds, then fits them all through the
family's registry fit_folds hook, which may share work across the folds
(the MLP trains an architecture's configs of every fold in one stack, and
elastic net builds every fold's set-up from one pass over the design).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .families import ModelFamily, get_family
from .features import (Categoricals, DesignMatrix, PipelineState, Strategy, assemble_design,
                       fit_pipeline)
from .metrics import score
from .panel import PanelDataset, stack_panel
from .reporting import TimingRow
from .run_config import CVConfig, FoldScheme

# named sub-seed tags: every component draws randomness from the run seed
# through one of these, so each is independently reproducible
TAG_FOLD = 1
TAG_FIT = 2
TAG_SHAP_BACKGROUND = 3


def subseed(seed: int, *tags: int) -> int:
    """Derive an independent child seed from the run seed and integer tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


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
    """Grid-search outcome for one family, timing included; the family and
    the fit count are the timing row's."""

    best_config: dict
    best_index: int
    mean_scores: tuple[float, ...]
    fold_scores: tuple[tuple[float, ...], ...]
    timing: TimingRow
    best_model: Any = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        """Deterministic portion (excludes wall-clock timing)."""
        return {
            "family": self.timing.family,
            "best_config": self.best_config,
            "best_index": self.best_index,
            "mean_scores": list(self.mean_scores),
            "fold_scores": [list(f) for f in self.fold_scores],
            "total_fits": self.timing.total_fits,
        }


def kfold_split(n: int, cv: CVConfig, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition 0..n-1 into k validation folds (sizes differ by at most 1).

    shuffled permutes by the run seed's TAG_FOLD sub-seed before chunking;
    blocked_by_time chunks the row order as given (stacked rows are
    date-major, so blocks respect time order).
    """
    if n < cv.k:
        raise ValueError(f"cannot make {cv.k} folds from {n} rows")
    if cv.scheme == FoldScheme.SHUFFLED:
        order = np.random.default_rng(subseed(seed, TAG_FOLD)).permutation(n)
    else:
        order = np.arange(n)
    chunks = np.array_split(order, cv.k)
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


def fold_chunks(k: int, n_jobs: int) -> list[range]:
    """Folds 0..k-1 in min(n_jobs, k) contiguous chunks, one per task;
    their sizes differ by at most one, the larger first."""
    tasks = min(n_jobs, k)
    size, extra = divmod(k, tasks)
    starts = [t * size + min(t, extra) for t in range(tasks + 1)]
    return [range(a, b) for a, b in zip(starts, starts[1:])]


def _pool_task(chunk: Sequence[int]) -> list[tuple[int, int, float]]:
    """(config, fold, score) of every config on each fold of ``chunk``,
    fold by fold. Every (config, fold) config is built before any fit, so
    an invalid one fails first; then the family's fit_folds hook fits them
    all, and a failure names the first failing config and fold in that
    order."""
    ctx = _POOL_CTX
    family, configs, X, y = ctx["family"], ctx["configs"], ctx["X"], ctx["y"]
    out = []
    try:
        cfgs = []
        for fi in chunk:
            cfgs.append([])
            for ci, params in enumerate(configs):
                cfgs[-1].append(family.config(params, subseed(ctx["seed"], TAG_FIT,
                                                              ctx["seed_keys"][ci], fi)))
        models = family.fit_folds(X, y, [ctx["folds"][fi][0] for fi in chunk], cfgs)
        for fi in chunk:
            val_idx = ctx["folds"][fi][1]
            X_val, y_val = X[val_idx], y[val_idx]
            for ci in range(len(configs)):
                out.append((ci, fi, score(y_val, family.predict(next(models), X_val))))
    except Exception as exc:
        raise FitFailedError(f"{family.name} fit failed for config {configs[ci]} "
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
    folds = kfold_split(len(y), cv, seed)
    k = len(folds)

    scores = np.full((len(configs), k), np.nan)
    chunks = fold_chunks(k, n_jobs)
    t0 = time.perf_counter()
    if len(chunks) > 1:
        # imported here: a one-job run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(chunks), initializer=_pool_init,
                                 initargs=(family_name, configs, seed_keys, X, y, folds, seed)) as pool:
            results = list(pool.map(_pool_task, chunks))
    else:
        _pool_init(family_name, configs, seed_keys, X, y, folds, seed)
        results = [_pool_task(chunk) for chunk in chunks]
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
        best_config=configs[best_index],
        best_index=best_index,
        mean_scores=tuple(float(s) for s in mean_scores),
        fold_scores=tuple(tuple(float(v) for v in row) for row in scores),
        timing=TimingRow(family_name, fits_executed, tuning_time,
                         tuning_time / fits_executed, best_fit_time),
        best_model=best_model,
    )


def prepare_designs(train_panel: PanelDataset, strategy: Strategy,
                    categoricals: Categoricals) -> tuple[DesignMatrix, PipelineState]:
    """The training design matrix and the state, fit on the training panel,
    that rebuilds it; design_from_state applies the state to any other
    panel."""
    train_stacked = stack_panel(train_panel)
    state = fit_pipeline(train_stacked, strategy, categoricals)
    return assemble_design(train_stacked, state), state


def design_from_state(state: PipelineState, panel: PanelDataset) -> DesignMatrix:
    """Rebuild the design matrix a stored model was trained against."""
    return assemble_design(stack_panel(panel), state)
