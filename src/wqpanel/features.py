"""Design-matrix assembly for the three input strategies.

Strategy 1: raw numeric features. Strategy 2: the same features
standardized with train-fitted z-scores. Strategy 3: standardized numerics
plus one-hot spatio-temporal categoricals: the row's site, and the month,
weekday and meteorological season read straight off the row's date.

A PipelineState is the one design spec. fit_pipeline fits it once, on the
training table: the standardizer, the site vocabulary and the column
names. assemble_design applies it to any table, training or test, and is
the only builder of a design matrix.

A stacked table keeps the panel's date and site axes, so every calendar
label and ordinal is worked out once per date and every site code once
per site; the design is then written into one preallocated matrix, row
i*K + j taking date i's and site j's codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .fieldtypes import Numbers, check_field_types
from .panel import StackedTable
from .run_config import Categoricals, Strategy, check_strategy

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


def one_hot_columns(strategy: Strategy, categoricals: Categoricals,
                    site_vocabulary) -> dict[str, dict]:
    """The one-hot groups a strategy adds (only strategy 3 adds any), in
    column order, each a dict from its vocabulary's labels, in order, to
    their column names."""
    if strategy != Strategy.STANDARDIZED_PLUS_CATEGORICAL:
        return {}
    vocabularies = {"site": site_vocabulary, "month": MONTH_VOCAB,
                    "weekday": WEEKDAY_VOCAB, "season": SEASON_VOCAB}
    return {group: {label: f"{group}={label}" for label in vocabulary}
            for group, vocabulary in vocabularies.items() if getattr(categoricals, group)}


def _names(one_hot: dict[str, dict]) -> tuple[str, ...]:
    return tuple(name for columns in one_hot.values() for name in columns.values())


@dataclass(frozen=True)
class PipelineState:
    """The one design spec, a field per key of a bundle's ``pipeline``
    object: fit once on the training table (fit_pipeline), it rebuilds
    the train-time columns for any table (assemble_design). The column
    names end with the one-hot columns that categoricals and the site
    vocabulary give, and the standardizer covers the numeric columns
    before them."""

    strategy: Strategy
    categoricals: Categoricals
    column_names: tuple[str, ...]
    standardizer: StandardizationParams | None
    site_vocabulary: tuple[str, ...]

    def __post_init__(self):
        check_field_types(self)
        if (self.standardizer is None) != (self.strategy == Strategy.RAW_NUMERIC):
            raise ValueError("standardizer must be null for strategy 1 and only then")
        check_strategy(self.strategy, self.categoricals)
        one_hot = _names(self.one_hot())
        n_numeric = len(self.column_names) - len(one_hot)
        if n_numeric < 0 or self.column_names[n_numeric:] != one_hot:
            raise ValueError(f"column_names must end with the {len(one_hot)} one-hot columns "
                             f"that categoricals and site_vocabulary give")
        if self.standardizer is not None and len(self.standardizer.mean) != n_numeric:
            raise ValueError(f"standardizer has {len(self.standardizer.mean)} entries, "
                             f"column_names has {n_numeric} numeric columns")

    def one_hot(self) -> dict[str, dict]:
        return one_hot_columns(self.strategy, self.categoricals, self.site_vocabulary)


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


def numeric_block(table: StackedTable, strategy: Strategy,
                  categoricals: Categoricals) -> tuple[list[str], np.ndarray]:
    """The numeric columns a strategy uses, in X1..Xp order (plus strategy
    3's optional ordinals, each read once per date)."""
    names = list(table.feature_names)
    if strategy == Strategy.STANDARDIZED_PLUS_CATEGORICAL:
        names += [name for name, flag in _ORDINALS.items() if getattr(categoricals, flag)]
    block = np.empty((table.row_count, len(names)))
    p = len(table.feature_names)
    block[:, :p] = table.X
    for c, name in enumerate(names[p:], p):
        per_date = np.array([getattr(d, name) for d in table.dates], dtype=float)
        block[:, c] = np.repeat(per_date, len(table.site_ids))
    return names, block


def fit_pipeline(table: StackedTable, strategy: Strategy,
                 categoricals: Categoricals) -> PipelineState:
    """The design spec fit on a training table: the standardizer of its
    numeric block (none for strategy 1), its sites, in its order, as the
    site vocabulary, and the column names these give."""
    names, numeric = numeric_block(table, strategy, categoricals)
    return PipelineState(
        strategy=strategy, categoricals=categoricals,
        column_names=(*names, *_names(one_hot_columns(strategy, categoricals, table.site_ids))),
        standardizer=None if strategy == Strategy.RAW_NUMERIC else fit_standardizer(numeric),
        site_vocabulary=table.site_ids)


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


def assemble_design(table: StackedTable, state: PipelineState) -> DesignMatrix:
    """The design matrix of ``table`` under ``state``, training or test.

    Column order is the state's: numerics first, standardized by its
    standardizer (none for strategy 1), then the one-hot groups in site,
    month, weekday, season order, vocabulary order within each group. A
    table whose numeric columns are not the state's is refused, and a
    site outside the state's vocabulary raises UnseenLabelError.
    """
    names, numeric = numeric_block(table, state.strategy, state.categoricals)
    one_hot = state.one_hot()
    n_numeric = len(state.column_names) - sum(map(len, one_hot.values()))
    if tuple(names) != state.column_names[:n_numeric]:
        raise ValueError("rebuilt design columns do not match the stored model; "
                         "was the schema or panel changed since tuning?")
    if state.standardizer is not None:
        numeric = apply_standardizer(state.standardizer, numeric)
    if not np.isfinite(numeric).all():  # one-hot blocks are 0 or 1
        raise ValueError("design matrix contains non-finite entries")

    # the numeric block, then each one-hot block's 1 per row at its code
    X = np.zeros((table.row_count, len(state.column_names)))
    X[:, :n_numeric] = numeric
    rows = np.arange(table.row_count)
    groups: dict[str, list[int]] = {}
    for group, columns in one_hot.items():
        start = n_numeric + sum(map(len, groups.values()))
        groups[group] = list(range(start, start + len(columns)))
        X[rows, start + _row_codes(table, group, columns)] = 1.0
    return DesignMatrix(column_names=state.column_names, X=X, y=table.y.copy(), groups=groups)
