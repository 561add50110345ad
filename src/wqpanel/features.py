"""Design-matrix assembly for the three input strategies.

Strategy 1: raw numeric features. Strategy 2: the same features
standardized with train-fitted z-scores. Strategy 3: standardized numerics
plus one-hot spatio-temporal categoricals: the row's site, and the month,
weekday and meteorological season read straight off the row's date.

A stacked table keeps the panel's date and site axes, so every calendar
label and ordinal is worked out once per date and every site code once
per site; the design is then written into one preallocated matrix, row
i*K + j taking date i's and site j's codes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .fieldtypes import Numbers, check_field_types
from .panel import StackedTable

MONTH_VOCAB = tuple(range(1, 13))
WEEKDAY_VOCAB = tuple(range(7))  # Monday = 0
SEASON_VOCAB = ("Winter", "Spring", "Summer", "Fall")

# meteorological convention: Dec-Feb, Mar-May, Jun-Aug, Sep-Nov
_MONTH_SEASON = {month: SEASON_VOCAB[month % 12 // 3] for month in MONTH_VOCAB}


class UnseenLabelError(ValueError):
    """A label at transform time is absent from the fitted vocabulary."""

    def __init__(self, label):
        self.label = label
        super().__init__(f"label {label!r} not in vocabulary")


@dataclass(frozen=True)
class StandardizationParams:
    """Per-column mean and sample sd, fit on training rows only."""

    mean: Annotated[np.ndarray, Numbers()]
    sd: Annotated[np.ndarray, Numbers()]

    def __post_init__(self):
        if self.mean.shape != self.sd.shape:
            raise ValueError("mean and sd must have the same length")
        if (self.sd < 0).any():
            raise ValueError("sd entries must be >= 0")


def fit_standardizer(train_columns: np.ndarray) -> StandardizationParams:
    """Column means and sample standard deviations of the training block."""
    train_columns = np.asarray(train_columns, dtype=float)
    if train_columns.ndim != 2 or len(train_columns) < 2:
        raise ValueError("fit_standardizer needs a 2-D block with >= 2 rows")
    return StandardizationParams(
        mean=train_columns.mean(axis=0),
        sd=train_columns.std(axis=0, ddof=1),
    )


def apply_standardizer(params: StandardizationParams, data: np.ndarray) -> np.ndarray:
    """z = (x - mean) / sd; zero-variance columns map to all zeros."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != len(params.mean):
        raise ValueError(
            f"column count {data.shape[1] if data.ndim == 2 else '?'} "
            f"does not match params length {len(params.mean)}")
    safe = np.where(params.sd == 0.0, 1.0, params.sd)
    z = data - params.mean
    z /= safe  # in place: a second temporary of z's size costs more than the division
    z[:, params.sd == 0.0] = 0.0
    return z


class Strategy(enum.IntEnum):
    RAW_NUMERIC = 1
    STANDARDIZED_NUMERIC = 2
    STANDARDIZED_PLUS_CATEGORICAL = 3


@dataclass(frozen=True)
class Categoricals:
    """The groups strategy 3 adds, by their run-config and bundle keys. The
    year and day ordinals are off by default: the test period's year is
    unseen in training, so they invite extrapolation artifacts."""

    site: bool = True
    month: bool = True
    weekday: bool = True
    season: bool = True
    year_ordinal: bool = False
    day_ordinal: bool = False

    def __post_init__(self):
        check_field_types(self)


@dataclass(frozen=True)
class StrategyConfig:
    """Which input strategy to assemble and which categorical groups to include."""

    strategy: Strategy = Strategy.RAW_NUMERIC
    categoricals: Categoricals = Categoricals()

    def __post_init__(self):
        if self.strategy == Strategy.STANDARDIZED_PLUS_CATEGORICAL and not self.categoricals.site:
            raise ValueError("strategy 3 requires the site one-hot group")


def one_hot_columns(categoricals: Categoricals, site_vocabulary) -> dict[str, dict]:
    """The one-hot groups strategy 3 adds, in column order, each a dict from
    its vocabulary's labels, in order, to their column names."""
    vocabularies = {"site": site_vocabulary, "month": MONTH_VOCAB,
                    "weekday": WEEKDAY_VOCAB, "season": SEASON_VOCAB}
    return {group: {label: f"{group}={label}" for label in vocabulary}
            for group, vocabulary in vocabularies.items() if getattr(categoricals, group)}


@dataclass(frozen=True)
class DesignMatrix:
    """What every model consumes: named columns, values and targets."""

    column_names: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray
    groups: dict[str, list[int]] = field(default_factory=dict)  # one-hot column blocks

    def __post_init__(self):
        if self.X.shape != (len(self.y), len(self.column_names)):
            raise ValueError("X shape inconsistent with names/targets")
        if not np.isfinite(self.X).all():
            raise ValueError("design matrix contains non-finite entries")

    @property
    def n_rows(self) -> int:
        return len(self.y)

    @property
    def n_cols(self) -> int:
        return len(self.column_names)


# a date's label in each calendar group, and the ordinals: the date
# attribute each one reads, by the Categoricals field that adds it
_DATE_LABELS = {"month": lambda d: d.month, "weekday": lambda d: d.weekday(),
                "season": lambda d: _MONTH_SEASON[d.month]}
_ORDINALS = {"year": "year_ordinal", "day": "day_ordinal"}


def numeric_block(table: StackedTable, cfg: StrategyConfig) -> tuple[list[str], np.ndarray]:
    """The numeric columns a strategy uses, in X1..Xp order (plus optional
    ordinals, each read once per date)."""
    names = list(table.feature_names)
    if cfg.strategy == Strategy.STANDARDIZED_PLUS_CATEGORICAL:
        names += [name for name, flag in _ORDINALS.items() if getattr(cfg.categoricals, flag)]
    block = np.empty((table.row_count, len(names)))
    p = len(table.feature_names)
    block[:, :p] = table.X
    for c, name in enumerate(names[p:], p):
        per_date = np.array([getattr(d, name) for d in table.dates], dtype=float)
        block[:, c] = np.repeat(per_date, len(table.site_ids))
    return names, block


def _row_codes(table: StackedTable, group: str, columns: dict) -> np.ndarray:
    """Each row's position in its one-hot group: a code per site, or per
    date, repeated over the other axis. Unseen labels raise
    UnseenLabelError; there is no silent 'other' bucket."""
    index = {label: i for i, label in enumerate(columns)}
    labels = (table.site_ids if group == "site"
              else map(_DATE_LABELS[group], table.dates))
    try:
        codes = np.array([index[label] for label in labels], dtype=np.intp)
    except KeyError as exc:
        raise UnseenLabelError(exc.args[0]) from None
    if group == "site":
        return np.tile(codes, len(table.dates))
    return np.repeat(codes, len(table.site_ids))


def assemble_design(table: StackedTable, cfg: StrategyConfig,
                    params: StandardizationParams | None = None,
                    site_vocabulary: tuple[str, ...] | None = None) -> DesignMatrix:
    """Build the design matrix for one strategy.

    Strategies 2 and 3 require standardization params fitted on the
    training split (fit_standardizer over this function's numeric_block).
    Column order is deterministic: numerics first, then one-hot groups in
    site, month, weekday, season order, vocabulary order within each group.

    For test-set assembly pass the training panel's site vocabulary so the
    one-hot columns line up; an unseen site raises UnseenLabelError.
    """
    names, numeric = numeric_block(table, cfg)
    if cfg.strategy != Strategy.RAW_NUMERIC:
        if params is None:
            raise ValueError(f"strategy {int(cfg.strategy)} requires standardization params")
        numeric = apply_standardizer(params, numeric)
    one_hot: dict[str, dict] = {}
    if cfg.strategy == Strategy.STANDARDIZED_PLUS_CATEGORICAL:
        if site_vocabulary is None:  # the table's own sites, in its order
            site_vocabulary = table.site_ids
        one_hot = one_hot_columns(cfg.categoricals, site_vocabulary)
    groups: dict[str, list[int]] = {}
    for group, columns in one_hot.items():
        groups[group] = list(range(len(names), len(names) + len(columns)))
        names.extend(columns.values())

    # the numeric block, then each one-hot block's 1 per row at its code
    X = np.zeros((table.row_count, len(names)))
    X[:, :numeric.shape[1]] = numeric
    rows = np.arange(table.row_count)
    for group, columns in one_hot.items():
        X[rows, groups[group][0] + _row_codes(table, group, columns)] = 1.0
    return DesignMatrix(
        column_names=tuple(names), X=X, y=table.y.copy(), groups=groups)
