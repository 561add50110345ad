"""Command-line entry point.

Subcommands: ingest, stats, tune, evaluate, explain, report. Every command
takes --config (a JSON run config, see run_config) and is idempotent
given the same config and seed; timing_*.json is the one wall-clock
exception. Exit codes: 0 success, 2 validation failure, 3 config error,
4 runtime/model error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .features import DesignMatrix
from .metrics import MetricReport, evaluate, fit_benchmark
from .panel import (PanelDataset, PanelFormatError, PanelSchema, load_panel,
                    load_sites, stack_panel, summarize, correlation_matrix,
                    validate_panel)
from .reporting import (build_results_table, persist_results_table,
                        persist_tuning_artifacts, render_correlation_csv,
                        render_results_markdown, render_summary_csv,
                        render_summary_json, render_timing_markdown,
                        ResultsTable)
from .run_config import ConfigError, RunConfig, load_run_config
from .serialize import PipelineState, load_model
from .shap_exact import (MarginalValueFunction, RetrainValueFunction,
                         mean_abs_shap, players_from_design, sample_background,
                         shap_for_dataset, write_mean_abs_csv, write_values_csv)
from .tuner import (CVConfig, HyperGrid, TAG_FOLD, TAG_SHAP_BACKGROUND,
                    DEFAULT_GRIDS, grid_search, prepare_designs, subseed)

TAG_SHAP_ROWS = 4

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONFIG = 3
EXIT_RUNTIME = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wqpanel",
                                     description="Panel-regression toolkit for "
                                                 "water-quality prediction")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--jobs", type=int, help="worker pool size for tuning")
        return p

    common(sub.add_parser("ingest", help="load, validate and cache the panels"))
    common(sub.add_parser("stats", help="write summary statistics and correlations"))

    tune = common(sub.add_parser("tune", help="cross-validated grid search"))
    tune.add_argument("--strategy", type=int, choices=(1, 2, 3))
    tune.add_argument("--family", help="comma-separated family subset")

    ev = common(sub.add_parser("evaluate", help="test-set metrics for saved models"))
    ev.add_argument("--strategy", type=int, choices=(1, 2, 3))
    ev.add_argument("--models", nargs="*", help="model bundle files "
                                                "(default: discover in output dir)")

    ex = common(sub.add_parser("explain", help="exact SHAP attributions"))
    ex.add_argument("--model", required=True, help="model bundle file")
    ex.add_argument("--rows", help="instance selection: 'a:b' slice or comma list")
    ex.add_argument("--kind", choices=("marginalize", "retrain"))
    ex.add_argument("--suffix", default="", help="suffix for the output CSV names")

    common(sub.add_parser("report", help="bundle results, timing and SHAP rankings"))
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = load_run_config(args.config)
    updates = {}
    if args.out:
        updates["output_dir"] = Path(args.out)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("seed must be >= 0")
        updates["seed"] = args.seed
    if args.jobs is not None:
        updates["n_jobs"] = args.jobs
    return dataclasses.replace(cfg, **updates) if updates else cfg


# ---------------------------------------------------------------- panels

_CACHE_NAME = "panel_cache.npz"


def _write_cache(path: Path, train: PanelDataset, test: PanelDataset) -> None:
    def pack(prefix: str, ds: PanelDataset) -> dict:
        return {
            f"{prefix}_dates": np.array([d.isoformat() for d in ds.dates]),
            f"{prefix}_sites": np.array(ds.site_ids),
            f"{prefix}_features": ds.features,
            f"{prefix}_targets": ds.targets,
        }

    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, feature_names=np.array(train.feature_names),
             **pack("train", train), **pack("test", test))


def _read_cache(path: Path, site_groups=None) -> tuple[PanelDataset, PanelDataset]:
    import datetime as dt

    with np.load(path, allow_pickle=False) as data:
        feature_names = tuple(str(s) for s in data["feature_names"])

        def unpack(prefix: str) -> PanelDataset:
            return PanelDataset(
                dates=tuple(dt.date.fromisoformat(str(s)) for s in data[f"{prefix}_dates"]),
                site_ids=tuple(str(s) for s in data[f"{prefix}_sites"]),
                feature_names=feature_names,
                features=data[f"{prefix}_features"],
                targets=data[f"{prefix}_targets"],
                site_groups=dict(site_groups or {}),
            )

        return unpack("train"), unpack("test")


def _load_panels(cfg: RunConfig) -> tuple[PanelDataset, PanelDataset]:
    groups = None
    if cfg.sites_csv is not None and cfg.sites_csv.exists():
        groups = load_sites(cfg.sites_csv)
    cache = cfg.output_dir / _CACHE_NAME
    if cache.exists():
        return _read_cache(cache, groups)
    cfg.require_data_paths()
    schema = PanelSchema.from_json(cfg.schema_path)
    train = load_panel(cfg.train_csv, schema, groups)
    test = load_panel(cfg.test_csv, schema, groups)
    return train, test


# ---------------------------------------------------------------- commands

def _cmd_ingest(args) -> int:
    cfg = _config_from_args(args)
    cfg.require_data_paths()
    schema = PanelSchema.from_json(cfg.schema_path)
    groups = load_sites(cfg.sites_csv) if cfg.sites_csv else None
    panels = {"train": load_panel(cfg.train_csv, schema, groups),
              "test": load_panel(cfg.test_csv, schema, groups)}

    reports = {}
    for split, ds in panels.items():
        rep = validate_panel(ds)
        reports[split] = rep
        print(f"{split}: {ds.n_dates} dates x {ds.n_sites} sites x "
              f"{ds.n_features} features, {rep.total_non_finite} missing")
        for column, count in rep.range_warnings.items():
            print(f"  warning: {split} column {column} has {count} value(s) "
                  f"outside [0, 1]")

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    if not all(rep.passed for rep in reports.values()):
        report_path = cfg.output_dir / "validation_report.json"
        report_path.write_text(
            json.dumps({s: r.as_dict() for s, r in reports.items()},
                       indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"validation: FAIL (report: {report_path})")
        return EXIT_VALIDATION

    _write_cache(cfg.output_dir / _CACHE_NAME, panels["train"], panels["test"])
    print("validation: PASS")
    print(f"cache: {cfg.output_dir / _CACHE_NAME}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    cfg = _config_from_args(args)
    train, _ = _load_panels(cfg)
    stacked = stack_panel(train)
    stats = summarize(stacked)
    corr = correlation_matrix(stacked)  # features only, target excluded

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    (cfg.output_dir / "summary_stats.csv").write_text(render_summary_csv(stats),
                                                      encoding="utf-8")
    (cfg.output_dir / "summary_stats.json").write_text(render_summary_json(stats),
                                                       encoding="utf-8")
    (cfg.output_dir / "correlation.csv").write_text(render_correlation_csv(corr),
                                                    encoding="utf-8")
    for warning in corr.warnings:
        print(f"warning: {warning}")
    print(f"wrote summary_stats.csv and correlation.csv to {cfg.output_dir}")
    return EXIT_OK


def _families_from_args(cfg: RunConfig, args) -> tuple[str, ...]:
    if getattr(args, "family", None):
        return tuple(f.strip() for f in args.family.split(",") if f.strip())
    return cfg.families


def _grid_for(cfg: RunConfig, family: str) -> HyperGrid:
    axes = cfg.grids.get(family) or DEFAULT_GRIDS.get(family)
    if axes is None:
        raise ConfigError(f"no grid configured for family {family!r}")
    return HyperGrid(axes={name: tuple(values) for name, values in axes.items()})


def _cmd_tune(args) -> int:
    cfg = _config_from_args(args)
    strategy = args.strategy or cfg.strategy
    families = _families_from_args(cfg, args)
    train, test = _load_panels(cfg)
    strategy_cfg = cfg.strategy_config(strategy)
    train_design, _, state = prepare_designs(train, test, strategy_cfg)
    cv = CVConfig(k=cfg.cv_k, seed=subseed(cfg.seed, TAG_FOLD),
                  scheme=cfg.fold_scheme())

    from .families import get_family

    tuning = {}
    importances = {}
    for family in families:
        grid = _grid_for(cfg, family)
        result = grid_search(family, grid, train_design.X, train_design.y, cv,
                             seed=cfg.seed, n_jobs=cfg.n_jobs)
        tuning[family] = result
        raw = get_family(family).importance(result.best_model, train_design.n_cols)
        importances[family] = None if raw is None else {
            col: float(v) for col, v in zip(train_design.column_names, raw)}
        if raw is None:
            print(f"{family}: feature importance unavailable for this family")
        print(f"{family}: best {result.best_config} "
              f"mean CV score {result.mean_scores[result.best_index]:.6f} "
              f"({result.total_fits} fits, {result.tuning_time:.2f}s)")

    persist_tuning_artifacts(cfg.output_dir, strategy, tuning, importances,
                             state, cfg.seed)
    print(f"wrote tuning artifacts for strategy {strategy} to {cfg.output_dir}")
    return EXIT_OK


def design_from_state(state: PipelineState, panel: PanelDataset) -> DesignMatrix:
    """Rebuild the design matrix a stored model was trained against."""
    from .features import assemble_design

    stacked = stack_panel(panel)
    design = assemble_design(stacked, state.strategy, state.standardizer,
                             state.site_vocabulary)
    if design.column_names != state.column_names:
        raise ValueError("rebuilt design columns do not match the stored model; "
                         "was the schema or panel changed since tuning?")
    return design


def _cmd_evaluate(args) -> int:
    cfg = _config_from_args(args)
    strategy = args.strategy or cfg.strategy
    train, test = _load_panels(cfg)

    if args.models:
        paths = [Path(p) for p in args.models]
    else:
        paths = sorted((cfg.output_dir / "models").glob(f"model_strategy{strategy}_*.json"))
    bundles = [load_model(p) for p in paths]

    y_train = stack_panel(train).y
    y_test = stack_panel(test).y
    benchmark = fit_benchmark(y_train)
    reports: dict[str, MetricReport] = {
        "benchmark": evaluate(y_test, np.full(len(y_test), benchmark.constant))}
    for bundle in bundles:
        design = design_from_state(bundle.pipeline, test)
        pred = bundle.family.predict(bundle.model, design.X)
        reports[bundle.family.name] = evaluate(design.y, pred)

    table = build_results_table(reports)
    persist_results_table(cfg.output_dir, strategy, table)
    print(render_results_markdown(table))
    print(f"wrote results_strategy{strategy}.csv to {cfg.output_dir}")
    return EXIT_OK


def _parse_rows(selection: str | None, cfg: RunConfig, n: int) -> list[int]:
    if selection:
        if ":" in selection:
            start_s, stop_s = selection.split(":", 1)
            rows = list(range(int(start_s or 0), min(int(stop_s), n)))
        else:
            rows = [int(t) for t in selection.split(",") if t.strip()]
    elif isinstance(cfg.shap_rows, list):
        rows = [int(r) for r in cfg.shap_rows]
    elif isinstance(cfg.shap_rows, dict) and "sample" in cfg.shap_rows:
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, TAG_SHAP_ROWS]))
        rows = sorted(rng.choice(n, size=min(int(cfg.shap_rows["sample"]), n),
                                 replace=False).tolist())
    else:
        rows = list(range(min(10, n)))
    bad = [r for r in rows if not 0 <= r < n]
    if bad:
        raise ConfigError(f"row selection out of range 0..{n - 1}: {bad}")
    if not rows:
        raise ConfigError("empty row selection")
    return rows


def _cmd_explain(args) -> int:
    cfg = _config_from_args(args)
    bundle = load_model(args.model)
    train, test = _load_panels(cfg)
    train_design = design_from_state(bundle.pipeline, train)
    test_design = design_from_state(bundle.pipeline, test)

    rows = _parse_rows(args.rows, cfg, test_design.n_rows)
    names, players = players_from_design(test_design)
    kind = args.kind or cfg.shap_kind

    if kind == "marginalize":
        background = sample_background(train_design.X, cfg.shap_background,
                                       subseed(cfg.seed, TAG_SHAP_BACKGROUND))
        solver = bundle.family.shap_solver
        vf = MarginalValueFunction(
            predict=lambda A: bundle.family.predict(bundle.model, A),
            background=background, player_columns=players, player_names=names,
            solver=None if solver is None else functools.partial(solver, bundle.model))
    else:
        vf = RetrainValueFunction(
            fit=lambda X, y: bundle.family.fit(X, y, bundle.hyper_params, bundle.seed),
            predict=bundle.family.predict,
            X_train=train_design.X, y_train=train_design.y,
            player_columns=players, player_names=names,
            family=bundle.family.name)

    attributions = shap_for_dataset(vf, test_design.X[rows], cap=cfg.shap_cap)
    ranking = mean_abs_shap(attributions)

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    suffix = args.suffix
    mean_path = cfg.output_dir / f"shap_mean_abs{suffix}.csv"
    values_path = cfg.output_dir / f"shap_values{suffix}.csv"
    write_mean_abs_csv(mean_path, ranking)
    write_values_csv(values_path, attributions, test_design.X[rows], players)
    top = ", ".join(f"{name}={value:.6f}" for name, value in ranking[:3])
    print(f"explained {len(rows)} instance(s) with kind={kind}; top: {top}")
    print(f"wrote {mean_path} and {values_path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    cfg = _config_from_args(args)
    out = cfg.output_dir
    results = sorted(out.glob("results_strategy*.json"))
    if not results:
        raise RuntimeError(f"no results_strategy*.json found in {out}; "
                           f"run evaluate first")

    lines = ["# Water quality prediction report", ""]
    for path in results:
        raw = json.loads(path.read_text(encoding="utf-8"))
        table = ResultsTable.from_dict(raw)
        lines.append(f"## Strategy {raw['strategy']}: prediction results")
        lines.append("")
        lines.append(render_results_markdown(table))

    timings = {int(p.stem.rsplit("strategy", 1)[1]): p
               for p in sorted(out.glob("timing_strategy*.json"))}
    # strategy 1 timing mirrors strategy 2 closely, so it is bundled only
    # when it is the sole run
    shown = [s for s in sorted(timings) if s != 1] or sorted(timings)
    for strategy in shown:
        payload = json.loads(timings[strategy].read_text(encoding="utf-8"))
        lines.append(f"## Strategy {strategy}: running time summary")
        lines.append("")
        lines.append(render_timing_markdown(payload))

    for path in sorted(out.glob("shap_mean_abs*.csv")):
        lines.append(f"## SHAP ranking ({path.name})")
        lines.append("")
        lines.append("| feature | mean |phi| |")
        lines.append("|---|---|")
        import csv as _csv
        with open(path, newline="", encoding="utf-8") as fh:
            for rec in list(_csv.DictReader(fh)):
                lines.append(f"| {rec['feature']} | {float(rec['mean_abs_shap']):.6g} |")
        lines.append("")

    report_path = out / "report.md"
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {report_path}")
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "stats": _cmd_stats,
    "tune": _cmd_tune,
    "evaluate": _cmd_evaluate,
    "explain": _cmd_explain,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PanelFormatError, FileNotFoundError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
