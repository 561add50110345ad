"""Report tables: five-metric results, tuning timings, x1000 display format.

Stored metric values stay in original units; every renderer here applies
the x1000 scaling with 2-decimal display. Best-per-column flags cover the
rows actually produced by this run (the published external RMSE is echoed
for comparison but never flagged). This module, and so each row type, loads without numpy.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
import reprlib
from dataclasses import dataclass
from pathlib import Path

from .families import FAMILY_NAMES
from .fieldtypes import build, check_field_types, to_json

# published RMSE of the spatio-temporal reference model, echoed as a
# comparison constant in every results table (original units)
EXTERNAL_ROW_LABEL = "SADL-II (published)"
EXTERNAL_REFERENCE_RMSE = 11.50 / 1000.0
# the constant training-mean predictor, reported under the key "benchmark"
BENCHMARK_ROW_LABEL = "Benchmarking"

DISPLAY_SCALE = 1000.0
METRIC_NAMES = ("rmse", "mape", "wmape", "wupred", "wopred")


def display(value: float | None) -> str:
    return "N/A" if value is None else f"{value * DISPLAY_SCALE:.2f}"


@dataclass(frozen=True)
class TimingRow:
    """One family's row of a timing_strategy<N>.json; times in seconds."""

    family: str
    total_fits: int
    tuning_time: float
    average_tuning: float
    best_fit_time: float

    def __post_init__(self):
        check_field_types(self)  # a string time fails here, not in the comparison
        for name in ("tuning_time", "average_tuning", "best_fit_time"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class MetricReport:
    """The five error metrics for one (model, dataset) pair."""

    rmse: float
    mape: float
    wmape: float
    wupred: float
    wopred: float
    n: int

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_NAMES}


@dataclass(frozen=True)
class ResultsTable:
    """One row per model: the five metrics on the held-out test set."""

    rows: tuple[tuple[str, dict[str, float | None]], ...]

    def best_labels(self) -> dict[str, str]:
        """Label achieving the minimum per metric, external reference excluded."""
        best: dict[str, str] = {}
        for metric in METRIC_NAMES:
            candidates = [(vals[metric], label) for label, vals in self.rows
                          if label != EXTERNAL_ROW_LABEL and vals.get(metric) is not None]
            if candidates:
                best[metric] = min(candidates)[1]
        return best

    def to_dict(self) -> dict:
        return {"rows": [[label, dict(vals)] for label, vals in self.rows]}

    @classmethod
    def from_dict(cls, raw: dict) -> "ResultsTable":
        """The table to_dict wrote; a row that is no [label, {metric: number
        or null}] is a ValueError naming it."""
        rows = []
        for i, row in enumerate(raw["rows"]):
            if not (isinstance(row, list) and len(row) == 2 and isinstance(row[0], str)
                    and isinstance(row[1], dict)):
                raise ValueError(f"rows[{i}] must be [label, {{metric: number or null}}], "
                                 f"got {reprlib.repr(row)}")
            label, vals = row
            for metric, value in vals.items():
                if value is not None and (isinstance(value, bool)
                                          or not isinstance(value, numbers.Real)):
                    raise ValueError(f"rows[{i}] ({label}): {metric} must be a number "
                                     f"or null, got {reprlib.repr(value)}")
            rows.append((label, dict(vals)))
        return cls(rows=tuple(rows))


def _display_name(family_name: str) -> str:
    names = FAMILY_NAMES.get(family_name)
    return names.display_name if names else family_name


def build_results_table(reports: dict[str, MetricReport]) -> ResultsTable:
    """Rows: external reference, Benchmarking, then families by display name."""
    external: dict[str, float | None] = {m: None for m in METRIC_NAMES}
    external["rmse"] = EXTERNAL_REFERENCE_RMSE
    rows: list[tuple[str, dict[str, float | None]]] = [(EXTERNAL_ROW_LABEL, external)]
    if "benchmark" in reports:
        rows.append((BENCHMARK_ROW_LABEL, dict(reports["benchmark"].as_dict())))
    others = sorted((name for name in reports if name != "benchmark"),
                    key=_display_name)
    for name in others:
        rows.append((_display_name(name), dict(reports[name].as_dict())))
    return ResultsTable(rows=tuple(rows))


def render_results_csv(table: ResultsTable) -> str:
    """Tables 4-6 shape plus a best_model footer row flagging the winners."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["model", *METRIC_NAMES])
    for label, vals in table.rows:
        writer.writerow([label, *(display(vals.get(m)) for m in METRIC_NAMES)])
    best = table.best_labels()
    writer.writerow(["best_model", *(best.get(m, "") for m in METRIC_NAMES)])
    return out.getvalue()


def render_results_markdown(table: ResultsTable) -> str:
    best = table.best_labels()
    lines = ["| Models | RMSE | MAPE | WMAPE | WUPRED | WOPRED |",
             "|---|---|---|---|---|---|"]
    for label, vals in table.rows:
        cells = []
        for metric in METRIC_NAMES:
            text = display(vals.get(metric))
            if best.get(metric) == label:
                text = f"**{text}**"
            cells.append(text)
        lines.append("| " + " | ".join([label, *cells]) + " |")
    lines.append("")
    lines.append("*All values are original values x 1000; bold marks the best "
                 "per column.*")
    return "\n".join(lines) + "\n"


def read_timings(raw) -> list[TimingRow]:
    """The rows of a timing file's JSON list; a bad row is a ValueError
    naming it and its field, as [i].<field>."""
    if not isinstance(raw, list):
        raise ValueError(f"the top level must be a list of timing rows, "
                         f"got {reprlib.repr(raw)}")
    return [build(TimingRow, row, f"[{i}]") for i, row in enumerate(raw)]


def render_timing_markdown(timings: list[TimingRow]) -> str:
    lines = ["| Models | Total Fits | Tuning Time | Average Tuning | "
             "Fitting Time (Best Model) |",
             "|---|---|---|---|---|"]
    for t in timings:
        lines.append(f"| {_display_name(t.family)} | {t.total_fits} "
                     f"| {t.tuning_time:.2f} | {t.average_tuning:.2f} "
                     f"| {t.best_fit_time:.2f} |")
    lines.append("")
    lines.append("*Times in seconds; hardware-dependent, reported but never "
                 "compared against published values.*")
    return "\n".join(lines) + "\n"


def render_summary_csv(stats: SummaryStats) -> str:
    """Table-3 shape: one row per statistic, 2-decimal display."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["statistic", *stats.columns])
    for stat in stats.STAT_ROWS:
        writer.writerow([stat, *(f"{v:.2f}" for v in stats.row(stat))])
    return out.getvalue()


def render_summary_json(stats: SummaryStats) -> str:
    payload = {stat: {col: float(v) for col, v in zip(stats.columns, stats.row(stat))}
               for stat in stats.STAT_ROWS}
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def render_correlation_csv(corr: CorrelationMatrix) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["", *corr.columns])
    for label, row in zip(corr.columns, corr.values):
        writer.writerow([label, *(repr(float(v)) for v in row)])
    return out.getvalue()


def render_importance_csv(importance: dict[str, float]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["feature", "importance"])
    for name, value in sorted(importance.items(), key=lambda kv: -kv[1]):
        writer.writerow([name, repr(value)])
    return out.getvalue()


def persist_results_table(out_dir: str | Path, strategy: int,
                          table: ResultsTable) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"results_strategy{strategy}.csv"
    csv_path.write_text(render_results_csv(table), encoding="utf-8")
    json_path = out_dir / f"results_strategy{strategy}.json"
    json_path.write_text(
        json.dumps({"strategy": strategy, **table.to_dict()}, indent=1, sort_keys=True)
        + "\n", encoding="utf-8")
    return [csv_path, json_path]


def persist_tuning_artifacts(out_dir: str | Path, strategy: int, tuning: dict,
                             importances: dict, pipeline_state, seed: int) -> list[Path]:
    """Write tuning results, timing, importances and model bundles.

    Timing goes to its own file because wall-clock makes it
    non-reproducible; the report command copies those times into the
    "running time summary" sections of report.md. Everything else is
    byte-identical under a fixed seed.
    """
    from .serialize import save_model  # local import keeps module deps one-way

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def put(path: Path, text: str) -> None:
        path.write_text(text, encoding="utf-8")
        written.append(path)

    for name, result in tuning.items():
        put(out_dir / f"tuning_strategy{strategy}_{name}.json",
            json.dumps(result.to_dict(), indent=1, sort_keys=True) + "\n")
    put(out_dir / f"timing_strategy{strategy}.json",
        json.dumps([to_json(tuning[name].timing) for name in sorted(tuning)],
                   indent=1) + "\n")

    for name, importance in importances.items():
        if importance is not None:
            put(out_dir / f"importance_strategy{strategy}_{name}.csv",
                render_importance_csv(importance))

    models_dir = out_dir / "models"
    for name, result in tuning.items():
        path = models_dir / f"model_strategy{strategy}_{name}.json"
        save_model(path, name, result.best_model, result.best_config, seed,
                   pipeline_state)
        written.append(path)
    return written
