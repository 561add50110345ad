"""Spatio-temporal panel loading, validation, stacking and exploratory stats.

The input is a long-format CSV with one row per (date, site) pair. A schema
config maps the raw column names onto the simplified names X1..Xp and Y.
The panel must be complete: every (date, site) combination present exactly
once.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fieldtypes import build, check_field_types

FEATURE_RANGE = (0.0, 1.0)
# the largest |value| validation passes, feature or target: the squared
# errors of a tree's split gain and of the MLP loss, and a feature's
# variance in the standardizer, overflow near 1e200
VALUE_BOUND = 1e100


class PanelFormatError(ValueError):
    """Structural problem in the panel file (bad cell, duplicate or missing pair)."""


@dataclass(frozen=True)
class PanelSchema:
    """Maps raw CSV column names to the panel roles: the schema file's JSON
    object, a field per key."""

    date_column: str
    site_column: str
    target_column: str
    feature_columns: dict  # simplified name -> raw CSV column name

    def __post_init__(self):
        check_field_types(self)
        if not self.feature_columns:
            raise ValueError("feature_columns must name at least one feature")
        for name, column in self.feature_columns.items():
            if not isinstance(column, str):
                raise ValueError(f"feature_columns.{name} must be a column name (a string), "
                                 f"got {column!r}")

    @property
    def feature_names(self) -> list[str]:
        return list(self.feature_columns)

    @classmethod
    def from_json(cls, path: str | Path) -> "PanelSchema":
        """The schema file, built by fieldtypes.build: any other shape, or a
        key that is no field, is a PanelFormatError naming the key."""
        try:
            with open(path, encoding="utf-8") as fh:
                return build(cls, json.load(fh))
        except ValueError as exc:
            raise PanelFormatError(f"schema {path}: {exc}") from None


@dataclass(frozen=True)
class PanelDataset:
    """Dates x sites x features tensor plus targets: dates strictly
    increasing, site_ids distinct, features of shape (N, K, p) and targets
    (N, K), with N = len(dates), K = len(site_ids), p = len(feature_names)."""

    dates: tuple[dt.date, ...]
    site_ids: tuple[str, ...]
    feature_names: tuple[str, ...]
    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        n, k, p = len(self.dates), len(self.site_ids), len(self.feature_names)
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")
        if len(set(self.site_ids)) != k:
            raise ValueError("site_ids must be distinct")
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

    The table keeps the panel's two axes, its N dates and its K sites, and
    row i*K + j holds dates[i] and site_ids[j]; ordering is date-major in
    the panel's site order.
    """

    dates: tuple[dt.date, ...]  # (N,)
    site_ids: tuple[str, ...]  # (K,)
    feature_names: tuple[str, ...]
    X: np.ndarray  # (N*K, p)
    y: np.ndarray  # (N*K,)
    target_name: str = "Y"

    def __post_init__(self):
        rows = len(self.dates) * len(self.site_ids)
        if len(self.X) != rows or len(self.y) != rows:
            raise ValueError(f"{len(self.dates)} dates x {len(self.site_ids)} sites need "
                             f"{rows} rows, X has {len(self.X)} and y {len(self.y)}")

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
    """Outcome of validate_panel: non-finite counts, range warnings, the
    values beyond VALUE_BOUND, verdict."""

    non_finite_counts: dict[str, int]
    non_finite_cells: tuple[tuple[str, str, str], ...]  # (date, site, column)
    range_warnings: dict[str, int]
    passed: bool
    unbounded_cells: tuple[tuple[str, str, str], ...]  # (date, site, column)

    @property
    def total_non_finite(self) -> int:
        return sum(self.non_finite_counts.values())


def load_sites(path: str | Path) -> None:
    """Check the optional sites file (site_id, location_group), metadata
    that no stage reads: its header must name a site_id column. A leading
    UTF-8 byte-order mark is read past."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), None)
    except UnicodeDecodeError as exc:
        raise PanelFormatError(f"sites file {path} is not UTF-8 text: {exc}") from None
    if header is None or "site_id" not in header:
        raise PanelFormatError(f"sites file {path} needs a 'site_id' column")


@dataclass(frozen=True)
class _Layout:
    """Where a panel CSV keeps each role: the header's field count, the
    date and site columns, and the columns of the numeric cells (the
    features, then the target) under the names errors give them."""

    width: int
    date: int
    site: int
    values: list[int]
    names: list[str]


def load_panel(path: str | Path, schema: PanelSchema) -> PanelDataset:
    """Load a long-format panel CSV into a PanelDataset.

    Dimensions are inferred from the distinct dates and sites. Numbers are
    read as Python's float() reads them, and a leading UTF-8 byte-order
    mark is read past. The panel must be complete; a duplicated or absent
    (date, site) pair, a row whose field count differs from the header's,
    an unparseable date or a non-numeric cell raises PanelFormatError
    naming the offending line or cell.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"panel file not found: {path}")

    with open(path, newline="", encoding="utf-8-sig") as fh:
        header_reader = csv.reader(fh)
        header = next(header_reader, [])
        body = fh.read()
    needed = [schema.date_column, schema.site_column, schema.target_column,
              *schema.feature_columns.values()]
    absent = [c for c in needed if c not in header]
    if absent:
        raise PanelFormatError(f"{path}: missing columns {absent}")
    column = {name: i for i, name in enumerate(header)}  # a repeated name: its last column
    layout = _Layout(
        width=len(header), date=column[schema.date_column],
        site=column[schema.site_column],
        values=[column[schema.feature_columns[name]] for name in schema.feature_names]
        + [column[schema.target_column]],
        names=[*schema.feature_names, "Y"])
    # the column-wise reader declines anything irregular; the row-wise
    # reader then finds and names the fault, or reads what is only unusual
    # (quoted cells, non-ASCII text) cell by cell
    dates, sites, features, targets = (_read_columns(body, layout)
                                       or _read_rows(path, body, layout,
                                                     header_reader.line_num + 1))
    return PanelDataset(
        dates=dates, site_ids=sites, feature_names=tuple(schema.feature_names),
        features=features, targets=targets)


# Tab, the line breaks and printable ASCII but the quote. A body of these
# alone splits into the records the csv module reads at its line breaks and
# into the cells it reads at every comma, and numpy reads each number there
# as float() does (float() also takes underscores, which numpy refuses).
_PLAIN = bytes([9, 10, 13, *range(0x20, 0x7f)]).replace(b'"', b"")
_LABEL_MAX = 64  # the longest date or site label the column reader takes


def _read_columns(body: str, layout: _Layout):
    """(dates, sites, features, targets) parsed a column at a time, or None
    when the body is not plain comma-separated ASCII, a row is ragged, a
    label is longer than _LABEL_MAX, a cell is not a number or a date, or
    the (date, site) pairs are not each present exactly once. A byte scan
    finds the lines, their fields and labels; np.loadtxt reads the numbers."""
    if not body.isascii() or body.encode("ascii").translate(None, _PLAIN):
        return None
    # the body's bytes, and room past them for the last label's window
    text = np.frombuffer((body + "\0" * _LABEL_MAX).encode("ascii"), dtype=np.uint8)
    # the lines are the non-empty runs between line breaks: csv skips blank lines
    breaks = np.flatnonzero((text == ord("\n")) | (text == ord("\r")))
    start, stop = np.append(0, breaks + 1), np.append(breaks, len(body))
    start, stop = start[start < stop], stop[start < stop]
    commas = np.flatnonzero(text == ord(","))
    if not len(start) or (np.searchsorted(commas, stop) - np.searchsorted(commas, start)
                          != layout.width - 1).any():
        return None
    edges = np.column_stack([start - 1, commas.reshape(len(start), -1), stop])
    try:
        raw_dates, _, date_row = _labels(text, edges, layout.date)
        raw_sites, site_first, site_row = _labels(text, edges, layout.site)
        date_of = [dt.date.fromisoformat(raw.strip()) for raw in raw_dates]
    except ValueError:
        return None
    site_of = [raw.strip() for raw in raw_sites]
    dates = tuple(sorted(set(date_of)))
    sites = tuple(dict.fromkeys(site_of[i] for i in np.argsort(site_first).tolist()))
    n, k, p = len(dates), len(sites), len(layout.values) - 1
    date_index = {date: i for i, date in enumerate(dates)}
    site_index = {site: j for j, site in enumerate(sites)}
    cell = (np.array([date_index[date] for date in date_of], np.intp)[date_row] * k
            + np.array([site_index[site] for site in site_of], np.intp)[site_row])
    if len(start) != n * k or np.bincount(cell, minlength=n * k).min() != 1:
        return None
    del text, commas, edges  # scanned: free the bytes before the lines
    lines = [line for line in body.splitlines() if line]  # the runs found above
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, usecols=layout.values,
                            ndmin=2)
    except ValueError:
        return None
    features = np.empty((n, k, p), dtype=float)
    targets = np.empty((n, k), dtype=float)
    features.reshape(n * k, p)[cell] = values[:, :p]
    targets.reshape(n * k)[cell] = values[:, p]
    return dates, sites, features, targets


def _labels(text: np.ndarray, edges: np.ndarray, field: int):
    """Column ``field``'s distinct labels (each line's bytes between its edges
    ``field`` and ``field + 1``), sorted, each one's first line and each line's
    label's position among them; NUL-padded (no label holds NUL) to the
    longest, so one longer than _LABEL_MAX is a ValueError."""
    start, stop = edges[:, field] + 1, edges[:, field + 1]
    lengths = stop - start
    longest = max(int(lengths.max()), 1)
    if longest > _LABEL_MAX:
        raise ValueError(f"a label is longer than {_LABEL_MAX} characters")
    padded = np.lib.stride_tricks.sliding_window_view(text, longest)[start]
    padded[np.arange(longest) >= lengths[:, None]] = 0
    labels, first, position = np.unique(padded.view(f"S{longest}")[:, 0],
                                        return_index=True, return_inverse=True)
    return [label.decode("ascii") for label in labels.tolist()], first, position


def _read_rows(path: Path, body: str, layout: _Layout, first_line: int):
    """(dates, sites, features, targets) parsed a row at a time; the first
    fault in file order raises PanelFormatError naming its cell or the
    file line its row starts on (the body starts on first_line)."""
    reader = csv.reader(io.StringIO(body, newline=""))
    records: dict[tuple[dt.date, str], tuple[list[float], float]] = {}
    dates_seen: dict[dt.date, None] = {}
    sites_seen: dict[str, None] = {}
    lines_read = 0
    for row in reader:
        lineno, lines_read = first_line + lines_read, reader.line_num
        if not row:  # a blank line
            continue
        if len(row) != layout.width:
            raise PanelFormatError(
                f"{path}:{lineno}: row has {len(row)} fields, the header has {layout.width}")
        raw_date = row[layout.date]
        try:
            date = dt.date.fromisoformat(raw_date.strip())
        except ValueError:
            raise PanelFormatError(
                f"{path}:{lineno}: unparseable date {raw_date!r} "
                f"(expected YYYY-MM-DD)") from None
        site = row[layout.site].strip()
        key = (date, site)
        if key in records:
            raise PanelFormatError(
                f"{path}:{lineno}: duplicated (date, site) pair ({date}, {site})")
        values = []
        for name, i in zip(layout.names, layout.values):
            try:
                values.append(float(row[i]))
            except ValueError:
                raise PanelFormatError(
                    f"{path}:{lineno}: cell ({date}, {site}, {name}) "
                    f"is not numeric: {row[i]!r}") from None
        records[key] = (values[:-1], values[-1])
        dates_seen.setdefault(date)
        sites_seen.setdefault(site)

    if not records:
        raise PanelFormatError(f"{path}: no data rows")
    dates = tuple(sorted(dates_seen))
    sites = tuple(sites_seen)  # first-appearance order
    n, k, p = len(dates), len(sites), len(layout.values) - 1

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
    return dates, sites, features, targets


def validate_panel(ds: PanelDataset) -> ValidationReport:
    """Count non-finite entries and out-of-range values per column.

    Passes iff there are zero non-finite entries and no value beyond
    +-VALUE_BOUND; out-of-range values (the features are expected in
    [0, 1]) only warn.
    """
    lo, hi = FEATURE_RANGE
    counts: dict[str, int] = {}
    cells: list[tuple[str, str, str]] = []
    unbounded: list[tuple[str, str, str]] = []
    warnings: dict[str, int] = {}
    columns = list(ds.feature_names) + ["Y"]
    for c, name in enumerate(columns):
        values = ds.targets if name == "Y" else ds.features[:, :, c]
        finite = np.isfinite(values)
        counts[name] = int((~finite).sum())
        for i, j in zip(*np.nonzero(~finite)):
            cells.append((ds.dates[i].isoformat(), ds.site_ids[j], name))
        for i, j in zip(*np.nonzero(finite & (np.abs(values) > VALUE_BOUND))):
            unbounded.append((ds.dates[i].isoformat(), ds.site_ids[j], name))
        out = int(((values < lo) | (values > hi))[finite].sum())
        if out:
            warnings[name] = out
    return ValidationReport(
        non_finite_counts=counts,
        non_finite_cells=tuple(cells),
        range_warnings=warnings,
        passed=not cells and not unbounded,
        unbounded_cells=tuple(unbounded),
    )


def stack_panel(ds: PanelDataset) -> StackedTable:
    """Flatten the panel date-major: row i*K + j carries (date_i, site_j)."""
    n, k, p = ds.n_dates, ds.n_sites, ds.n_features
    return StackedTable(
        dates=ds.dates, site_ids=ds.site_ids, feature_names=ds.feature_names,
        X=ds.features.reshape(n * k, p).copy(), y=ds.targets.reshape(n * k).copy())


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
