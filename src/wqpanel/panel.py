"""Spatio-temporal panel loading, validation, stacking and exploratory stats.

The input is a long-format CSV with one row per (date, site) pair. A schema
config maps the raw column names onto the simplified names X1..Xp and Y.
The panel must be complete: every (date, site) combination present exactly
once.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FEATURE_RANGE = (0.0, 1.0)


class PanelFormatError(ValueError):
    """Structural problem in the panel file (bad cell, duplicate or missing pair)."""


@dataclass(frozen=True)
class PanelSchema:
    """Maps raw CSV column names to the panel roles."""

    date_column: str
    site_column: str
    target_column: str
    feature_columns: dict[str, str]  # simplified name -> raw CSV column name

    @property
    def feature_names(self) -> list[str]:
        return list(self.feature_columns)

    @classmethod
    def from_json(cls, path: str | Path) -> "PanelSchema":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        missing = {"date_column", "site_column", "target_column", "feature_columns"} - set(raw)
        if missing:
            raise PanelFormatError(f"schema {path} is missing keys: {sorted(missing)}")
        return cls(
            date_column=raw["date_column"],
            site_column=raw["site_column"],
            target_column=raw["target_column"],
            feature_columns=dict(raw["feature_columns"]),
        )


@dataclass(frozen=True)
class PanelDataset:
    """Dates x sites x features tensor plus targets.

    dates are strictly increasing; features has shape (N, K, p) and targets
    (N, K), with N = len(dates), K = len(site_ids), p = len(feature_names).
    """

    dates: tuple[dt.date, ...]
    site_ids: tuple[str, ...]
    feature_names: tuple[str, ...]
    features: np.ndarray
    targets: np.ndarray
    site_groups: dict[str, str] = field(default_factory=dict)  # metadata only

    def __post_init__(self):
        n, k, p = len(self.dates), len(self.site_ids), len(self.feature_names)
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")
        if self.features.shape != (n, k, p):
            raise ValueError(f"features shape {self.features.shape} != {(n, k, p)}")
        if self.targets.shape != (n, k):
            raise ValueError(f"targets shape {self.targets.shape} != {(n, k)}")

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @property
    def n_sites(self) -> int:
        return len(self.site_ids)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


@dataclass(frozen=True)
class StackedTable:
    """Flat row-major view of a panel: one row per (date, site) pair.

    Row i*K + j holds date_i, site_j; ordering is date-major in the panel's
    site order.
    """

    dates: tuple[dt.date, ...]
    site_ids: tuple[str, ...]
    feature_names: tuple[str, ...]
    X: np.ndarray  # (N*K, p)
    y: np.ndarray  # (N*K,)
    target_name: str = "Y"

    @property
    def row_count(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class SummaryStats:
    """Per-column mean, sample sd, min, quartiles and max (Table-3 style)."""

    columns: tuple[str, ...]
    mean: np.ndarray
    sd: np.ndarray
    min: np.ndarray
    q25: np.ndarray
    q50: np.ndarray
    q75: np.ndarray
    max: np.ndarray

    STAT_ROWS = ("Mean", "SD", "Min", "25%", "50%", "75%", "Max")

    def row(self, stat: str) -> np.ndarray:
        return {
            "Mean": self.mean, "SD": self.sd, "Min": self.min, "25%": self.q25,
            "50%": self.q50, "75%": self.q75, "Max": self.max,
        }[stat]


@dataclass(frozen=True)
class CorrelationMatrix:
    columns: tuple[str, ...]
    values: np.ndarray  # (p, p) Pearson coefficients
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_panel: non-finite counts, range warnings, verdict."""

    non_finite_counts: dict[str, int]
    non_finite_cells: tuple[tuple[str, str, str], ...]  # (date, site, column)
    range_warnings: dict[str, int]
    passed: bool

    @property
    def total_non_finite(self) -> int:
        return sum(self.non_finite_counts.values())

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "non_finite_counts": self.non_finite_counts,
            "non_finite_cells": [list(c) for c in self.non_finite_cells],
            "range_warnings": self.range_warnings,
        }


def load_sites(path: str | Path) -> dict[str, str]:
    """Read the optional sites file (site_id, location_group); metadata only."""
    groups: dict[str, str] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "site_id" not in reader.fieldnames:
            raise PanelFormatError(f"sites file {path} needs a 'site_id' column")
        group_col = "location_group" if "location_group" in (reader.fieldnames or []) else None
        for rec in reader:
            groups[rec["site_id"]] = rec[group_col] if group_col else ""
    return groups


def load_panel(path: str | Path, schema: PanelSchema,
               site_groups: dict[str, str] | None = None) -> PanelDataset:
    """Load a long-format panel CSV into a PanelDataset.

    Dimensions are inferred from the distinct dates and sites. The panel
    must be complete; a duplicated or absent (date, site) pair raises
    PanelFormatError naming the offending cell.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"panel file not found: {path}")

    feature_names = schema.feature_names
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        needed = [schema.date_column, schema.site_column, schema.target_column,
                  *schema.feature_columns.values()]
        absent = [c for c in needed if c not in header]
        if absent:
            raise PanelFormatError(f"{path}: missing columns {absent}")

        records: dict[tuple[dt.date, str], tuple[list[float], float]] = {}
        dates_seen: dict[dt.date, None] = {}
        sites_seen: dict[str, None] = {}
        for lineno, rec in enumerate(reader, start=2):
            raw_date = rec[schema.date_column]
            try:
                date = dt.date.fromisoformat(raw_date.strip())
            except ValueError:
                raise PanelFormatError(
                    f"{path}:{lineno}: unparseable date {raw_date!r} "
                    f"(expected YYYY-MM-DD)") from None
            site = rec[schema.site_column].strip()
            key = (date, site)
            if key in records:
                raise PanelFormatError(
                    f"{path}:{lineno}: duplicated (date, site) pair ({date}, {site})")
            row = []
            for name in feature_names:
                raw_col = schema.feature_columns[name]
                try:
                    row.append(float(rec[raw_col]))
                except ValueError:
                    raise PanelFormatError(
                        f"{path}:{lineno}: cell ({date}, {site}, {name}) "
                        f"is not numeric: {rec[raw_col]!r}") from None
            try:
                target = float(rec[schema.target_column])
            except ValueError:
                raise PanelFormatError(
                    f"{path}:{lineno}: cell ({date}, {site}, Y) is not numeric: "
                    f"{rec[schema.target_column]!r}") from None
            records[key] = (row, target)
            dates_seen.setdefault(date)
            sites_seen.setdefault(site)

    if not records:
        raise PanelFormatError(f"{path}: no data rows")
    dates = tuple(sorted(dates_seen))
    sites = tuple(sites_seen)  # first-appearance order
    n, k, p = len(dates), len(sites), len(feature_names)

    features = np.empty((n, k, p), dtype=float)
    targets = np.empty((n, k), dtype=float)
    for i, date in enumerate(dates):
        for j, site in enumerate(sites):
            try:
                row, target = records[(date, site)]
            except KeyError:
                raise PanelFormatError(
                    f"{path}: incomplete panel, missing pair ({date}, {site})") from None
            features[i, j, :] = row
            targets[i, j] = target
    return PanelDataset(
        dates=dates, site_ids=sites, feature_names=tuple(feature_names),
        features=features, targets=targets, site_groups=dict(site_groups or {}))


def validate_panel(ds: PanelDataset) -> ValidationReport:
    """Count non-finite entries and out-of-range values per column.

    Passes iff there are zero non-finite entries; out-of-range values (the
    features are expected in [0, 1]) only warn.
    """
    lo, hi = FEATURE_RANGE
    counts: dict[str, int] = {}
    cells: list[tuple[str, str, str]] = []
    warnings: dict[str, int] = {}
    columns = list(ds.feature_names) + ["Y"]
    for c, name in enumerate(columns):
        values = ds.targets if name == "Y" else ds.features[:, :, c]
        bad = ~np.isfinite(values)
        counts[name] = int(bad.sum())
        for i, j in zip(*np.nonzero(bad)):
            cells.append((ds.dates[i].isoformat(), ds.site_ids[j], name))
        out = int(((values < lo) | (values > hi))[np.isfinite(values)].sum())
        if out:
            warnings[name] = out
    return ValidationReport(
        non_finite_counts=counts,
        non_finite_cells=tuple(cells),
        range_warnings=warnings,
        passed=sum(counts.values()) == 0,
    )


def stack_panel(ds: PanelDataset) -> StackedTable:
    """Flatten the panel date-major: row i*K + j carries (date_i, site_j)."""
    n, k, p = ds.n_dates, ds.n_sites, ds.n_features
    dates = tuple(d for d in ds.dates for _ in range(k))
    sites = tuple(s for _ in range(n) for s in ds.site_ids)
    return StackedTable(
        dates=dates, site_ids=sites, feature_names=ds.feature_names,
        X=ds.features.reshape(n * k, p).copy(), y=ds.targets.reshape(n * k).copy())


def unstack_table(table: StackedTable, n_dates: int, n_sites: int) -> PanelDataset:
    """Inverse of stack_panel (row order must be the stacked order)."""
    p = len(table.feature_names)
    return PanelDataset(
        dates=tuple(table.dates[::n_sites]),
        site_ids=tuple(table.site_ids[:n_sites]),
        feature_names=table.feature_names,
        features=table.X.reshape(n_dates, n_sites, p).copy(),
        targets=table.y.reshape(n_dates, n_sites).copy(),
    )


def summarize(table: StackedTable) -> SummaryStats:
    """Table-3 style summary: mean, sample sd, min, quartiles, max per column.

    Percentiles use linear interpolation between closest ranks.
    """
    if table.row_count == 0:
        raise ValueError("summarize requires at least one row")
    names = list(table.feature_names) + [table.target_name]
    data = np.column_stack([table.X, table.y])
    q25, q50, q75 = np.percentile(data, [25, 50, 75], axis=0)
    ddof = 1 if len(data) > 1 else 0
    return SummaryStats(
        columns=tuple(names),
        mean=data.mean(axis=0),
        sd=data.std(axis=0, ddof=ddof),
        min=data.min(axis=0),
        q25=q25, q50=q50, q75=q75,
        max=data.max(axis=0),
    )


def correlation_matrix(table: StackedTable) -> CorrelationMatrix:
    """Pearson correlations between the feature columns (the target is left out).

    A zero-variance column correlates 0 with everything else (with a
    warning) and 1 with itself.
    """
    if table.row_count < 2:
        raise ValueError("correlation_matrix requires at least 2 rows")
    X = np.asfortranarray(table.X)  # column-major: each column sums pairwise
    centered = X - X.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    # max == min is the robust constancy test; centering a constant column
    # can leave O(eps) residue when its mean is not exactly representable
    constant = (X.max(axis=0) == X.min(axis=0)) | (norms == 0.0)
    warnings = tuple(f"column {c} has zero variance; correlations set to 0"
                     for c, flag in zip(table.feature_names, constant) if flag)
    safe = np.where(constant, 1.0, norms)
    unit = centered / safe
    corr = unit.T @ unit
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    np.fill_diagonal(corr, 1.0)
    corr = np.clip(corr, -1.0, 1.0)
    # enforce exact symmetry against accumulation order effects
    corr = (corr + corr.T) / 2.0
    return CorrelationMatrix(columns=tuple(table.feature_names), values=corr, warnings=warnings)
