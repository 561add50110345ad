"""Command-line entry point.

Subcommands: ingest, stats, tune, evaluate, explain, report. Every command
takes --config (a JSON run config, see run_config) and is idempotent
given the same config and seed. The wall-clock exceptions are
timing_*.json and the "running time summary" sections of report.md, which
copy its times. Exit codes: 0 success, 2 validation failure, 3 config
error, 4 runtime/model error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import importlib
import json
import re
import sys
from collections import Counter
from pathlib import Path

from .families import get_family
from .fieldtypes import to_json
from .reporting import (MetricReport, ResultsTable, build_results_table,
                        persist_results_table, persist_tuning_artifacts, read_timings,
                        render_correlation_csv, render_results_markdown,
                        render_summary_csv, render_summary_json, render_timing_markdown)
from .run_config import (SHAP_KINDS, ConfigError, RunConfig, Strategy, check_families,
                         load_run_config)
from .serialize import load_model, naming_file

# Names from panel and tuner, bound on first read as attributes (PEP 562): report loads no
# numpy. Stages call them as _this.<name>, so a name set on this module is the one called.
_LAZY = {"load_panel": "panel", "validate_panel": "panel", "summarize": "panel",
         "correlation_matrix": "panel", "stack_panel": "panel", "grid_search": "tuner"}
_this = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    return globals()[name]


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
    tune.add_argument("--strategy", type=int, choices=[s.value for s in Strategy])
    tune.add_argument("--family", help="comma-separated family subset")

    ev = common(sub.add_parser("evaluate", help="test-set metrics for saved models"))
    ev.add_argument("--strategy", type=int, choices=[s.value for s in Strategy])
    ev.add_argument("--models", nargs="*", help="model bundle files "
                                                "(default: discover in output dir)")

    ex = common(sub.add_parser("explain", help="exact SHAP attributions"))
    ex.add_argument("--model", required=True, help="model bundle file")
    ex.add_argument("--rows", help="instance selection: 'a:b' slice or comma list")
    ex.add_argument("--kind", choices=SHAP_KINDS)
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
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        updates["n_jobs"] = args.jobs
    if getattr(args, "strategy", None):  # tune and evaluate take --strategy
        updates["strategy"] = Strategy(args.strategy)
    try:
        return dataclasses.replace(cfg, **updates)
    except ValueError as exc:  # the strategy override against the categoricals
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------- panels

_CACHE_NAME = "panel_cache.npz"
_DIGEST_PREFIX = "sha256_"
_SPLITS = ("train", "test")


def _input_digests(cfg: RunConfig) -> dict[str, str]:
    """SHA-256 of every input the panels are read from, by data key; the
    cache stores these (not paths or mtimes) so copied inputs still match."""
    cfg.require_data_paths()
    return {label: "" if path is None else _sha256(path)
            for label, path in vars(cfg.data).items()}


def _sha256(path: Path) -> str:
    import hashlib
    digest = hashlib.sha256()
    with open(path, "rb") as fh:  # by blocks: reading a large CSV whole raises peak RSS
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_cache(path: Path, train: PanelDataset, test: PanelDataset,
                 digests: dict[str, str]) -> None:
    import numpy as np

    def pack(prefix: str, ds: PanelDataset) -> dict:
        return {
            f"{prefix}_dates": np.array([d.isoformat() for d in ds.dates]),
            f"{prefix}_sites": np.array(ds.site_ids),
            f"{prefix}_features": ds.features,
            f"{prefix}_targets": ds.targets,
        }

    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, feature_names=np.array(train.feature_names),
             **pack("train", train), **pack("test", test),
             **{_DIGEST_PREFIX + label: np.array(d) for label, d in digests.items()})


# a cached array's (dtype char, ndim) by its name's last word, "d" being
# float64: ingest caches only validated panels, so anything else is corrupt
_CACHED = {"names": ("U", 1), "dates": ("U", 1), "sites": ("U", 1),
           "features": ("d", 3), "targets": ("d", 2)}


def _cached(data, key: str) -> np.ndarray:
    import numpy as np
    char, ndim = _CACHED[key.rsplit("_", 1)[1]]
    array = data[key]  # each read of an npz member unzips it again
    if array.dtype.char != char or array.ndim != ndim or (
            char == "d" and not np.isfinite(array).all()):
        raise ValueError(f"{key} is not a {ndim}-d array of "
                         f"{'finite float64' if char == 'd' else 'text'}")
    return array


def _read_cache(path: Path, cfg: RunConfig,
                splits: tuple[str, ...]) -> tuple[PanelDataset, ...] | None:
    """The cached panels of ``splits``, or None after one stderr line naming
    the cache and why it is not used: an input changed since ingest (the
    first one is named), or the file is unreadable or corrupt (_cached)."""
    import datetime as dt
    import zipfile

    import numpy as np

    from .panel import PanelDataset

    digests = _input_digests(cfg)  # a missing input is an error, cache or not
    try:
        with np.load(path, allow_pickle=False) as data:
            for label, digest in digests.items():
                key = _DIGEST_PREFIX + label
                if key not in data.files or str(data[key]) != digest:
                    print(f"warning: {label} changed since ingest; reading the CSVs "
                          f"instead of {path}", file=sys.stderr)
                    return None
            feature_names = tuple(map(str, _cached(data, "feature_names")))
            panels = tuple(PanelDataset(
                dates=tuple(map(dt.date.fromisoformat, _cached(data, f"{split}_dates"))),
                site_ids=tuple(map(str, _cached(data, f"{split}_sites"))),
                feature_names=feature_names,
                features=_cached(data, f"{split}_features"),
                targets=_cached(data, f"{split}_targets"),
            ) for split in splits)
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        print(f"warning: cannot read {path} ({type(exc).__name__}: {exc}); "
              f"reading the CSVs instead", file=sys.stderr)
        return None
    return panels


def _read_panels(cfg: RunConfig,
                 splits: tuple[str, ...] = _SPLITS) -> tuple[PanelDataset, ...]:
    """Parse the CSVs of ``splits``."""
    from .panel import PanelSchema
    cfg.require_data_paths()
    schema = PanelSchema.from_json(cfg.data.schema)
    paths = {"train": cfg.data.train_csv, "test": cfg.data.test_csv}
    return tuple(_this.load_panel(paths[split], schema) for split in splits)


def _load_panels(cfg: RunConfig,
                 splits: tuple[str, ...] = _SPLITS) -> tuple[PanelDataset, ...]:
    """The panels of ``splits`` from ingest's cache if it matches the inputs,
    else from their CSVs."""
    cache = cfg.output_dir / _CACHE_NAME
    panels = _read_cache(cache, cfg, splits) if cache.exists() else None
    return _read_panels(cfg, splits) if panels is None else panels


# ---------------------------------------------------------------- commands

def _cmd_ingest(args) -> int:
    from .panel import VALUE_BOUND, load_sites
    cfg = _config_from_args(args)
    train, test = _read_panels(cfg)
    if cfg.data.sites_csv:
        load_sites(cfg.data.sites_csv)  # a sites file needs a site_id column
    panels = {"train": train, "test": test}

    reports = {}
    for split, ds in panels.items():
        rep = _this.validate_panel(ds)
        reports[split] = rep
        print(f"{split}: {ds.n_dates} dates x {ds.n_sites} sites x "
              f"{ds.n_features} features, {rep.total_non_finite} missing")
        for column, count in rep.range_warnings.items():
            print(f"  warning: {split} column {column} has {count} value(s) "
                  f"outside [0, 1]")
        for column, count in Counter(c for _, _, c in rep.unbounded_cells).items():
            print(f"  error: {split} column {column} has {count} value(s) "
                  f"beyond +-{VALUE_BOUND:g}")

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    if not all(rep.passed for rep in reports.values()):
        report_path = cfg.output_dir / "validation_report.json"
        report_path.write_text(
            json.dumps({s: to_json(r) for s, r in reports.items()},
                       indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"validation: FAIL (report: {report_path})")
        return EXIT_VALIDATION

    _write_cache(cfg.output_dir / _CACHE_NAME, train, test, _input_digests(cfg))
    print("validation: PASS")
    print(f"cache: {cfg.output_dir / _CACHE_NAME}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    cfg = _config_from_args(args)
    [train] = _load_panels(cfg, ("train",))
    stacked = _this.stack_panel(train)
    stats = _this.summarize(stacked)
    corr = _this.correlation_matrix(stacked)

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
    if not args.family:
        if not cfg.families:
            raise ConfigError("families is empty: tune has no family to fit")
        return cfg.families
    families = tuple(f.strip() for f in args.family.split(",") if f.strip())
    if not families:
        raise ConfigError("--family must name at least one tunable family")
    check_families(families, "--family")
    return families


def _cmd_tune(args) -> int:
    from .tuner import prepare_designs
    cfg = _config_from_args(args)
    families = _families_from_args(cfg, args)
    [train] = _load_panels(cfg, ("train",))
    train_design, state = prepare_designs(train, cfg.strategy, cfg.categoricals)

    tuning = {}
    importances = {}
    for family in families:
        # no grids entry: the registry default; an empty entry: one config
        # of learner defaults
        grid = cfg.grids.get(family, get_family(family).default_grid)
        result = _this.grid_search(family, grid, train_design.X, train_design.y, cfg.cv,
                             seed=cfg.seed, n_jobs=cfg.n_jobs)
        tuning[family] = result
        raw = get_family(family).importance(result.best_model, train_design.n_cols)
        importances[family] = None if raw is None else {
            col: float(v) for col, v in zip(train_design.column_names, raw)}
        if raw is None:
            print(f"{family}: feature importance unavailable for this family")
        print(f"{family}: best {result.best_config} "
              f"mean CV score {result.mean_scores[result.best_index]:.6f} "
              f"({result.timing.total_fits} fits, {result.timing.tuning_time:.2f}s)")

    persist_tuning_artifacts(cfg.output_dir, cfg.strategy, tuning, importances,
                             state, cfg.seed)
    print(f"wrote tuning artifacts for strategy {cfg.strategy} to {cfg.output_dir}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    from .metrics import evaluate, fit_benchmark
    from .tuner import design_from_state
    cfg = _config_from_args(args)
    train, test = _load_panels(cfg)

    if args.models:
        paths = [Path(p) for p in args.models]
    else:
        paths = sorted((cfg.output_dir / "models").glob(f"model_strategy{cfg.strategy}_*.json"))
    bundles = [load_model(p) for p in paths]
    names = [bundle.family.name for bundle in bundles]
    for path, bundle, name in zip(paths, bundles, names):
        if bundle.pipeline.strategy != cfg.strategy:  # its row would be filed wrongly
            raise ValueError(f"{path}: a strategy {bundle.pipeline.strategy} bundle; "
                             f"evaluate writes the results of strategy {cfg.strategy}")
        if names.count(name) > 1:  # one row per family: all but one would be dropped
            raise ValueError(f"{[str(p) for p, n in zip(paths, names) if n == name]}: "
                             f"bundles of one family, {name}; evaluate takes one each")

    y_train = train.targets.ravel()  # the stacked order: date-major
    y_test = test.targets.ravel()
    reports: dict[str, MetricReport] = {
        "benchmark": evaluate(y_test, [fit_benchmark(y_train)] * len(y_test))}
    for bundle in bundles:
        design = design_from_state(bundle.pipeline, test)
        pred = bundle.family.predict(bundle.model, design.X)
        reports[bundle.family.name] = evaluate(design.y, pred)

    table = build_results_table(reports)
    persist_results_table(cfg.output_dir, cfg.strategy, table)
    print(render_results_markdown(table))
    print(f"wrote results_strategy{cfg.strategy}.csv to {cfg.output_dir}")
    return EXIT_OK


def _parse_rows(selection: str | None, cfg: RunConfig, n: int) -> list[int]:
    if selection:
        try:
            if ":" in selection:
                start_s, stop_s = selection.split(":", 1)
                rows = list(range(int(start_s or 0), min(int(stop_s or n), n)))
            else:
                rows = [int(t) for t in selection.split(",") if t.strip()]
        except ValueError:
            raise ConfigError(f"row selection {selection!r} is neither an 'a:b' "
                              f"slice nor a comma list of integers") from None
    elif isinstance(cfg.shap.rows, list):
        rows = list(cfg.shap.rows)
    elif isinstance(cfg.shap.rows, dict):
        import numpy as np
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, TAG_SHAP_ROWS]))
        rows = sorted(rng.choice(n, size=min(cfg.shap.rows["sample"], n),
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
    # imported here, so that only explain loads the SHAP module
    from .shap_exact import (MarginalValueFunction, RetrainValueFunction,
                             mean_abs_shap, players_from_design, sample_background,
                             shap_for_dataset, write_mean_abs_csv, write_values_csv)
    from .tuner import TAG_SHAP_BACKGROUND, design_from_state, subseed

    cfg = _config_from_args(args)
    bundle = load_model(args.model)
    kind = args.kind or cfg.shap.kind
    if kind == "retrain" and not bundle.family.cheap_refit:
        from .families import FAMILIES  # every entry, and so every learner
        cheap = tuple(name for name, family in FAMILIES.items() if family.cheap_refit)
        raise ValueError(f"retrain value function is restricted to cheap families "
                         f"{cheap}, got {bundle.family.name!r}")
    train, test = _load_panels(cfg)
    train_design = design_from_state(bundle.pipeline, train)
    test_design = design_from_state(bundle.pipeline, test)

    rows = _parse_rows(args.rows, cfg, test_design.n_rows)
    names, players = players_from_design(test_design)

    if kind == "marginalize":
        background = sample_background(train_design.X, cfg.shap.background_size,
                                       subseed(cfg.seed, TAG_SHAP_BACKGROUND))
        def bind(hook):
            return None if hook is None else functools.partial(hook, bundle.model)

        vf = MarginalValueFunction(
            predict=lambda A: bundle.family.predict(bundle.model, A),
            background=background, player_columns=players, player_names=names,
            solver=bind(bundle.family.shap_solver),
            coalitions=bind(bundle.family.shap_coalitions))
    else:
        learner = bundle.family.config(bundle.hyper_params, bundle.seed)
        vf = RetrainValueFunction(
            fit=lambda X, y: bundle.family.fit(X, y, learner),
            predict=bundle.family.predict,
            X_train=train_design.X, y_train=train_design.y,
            player_columns=players, player_names=names)

    attributions = shap_for_dataset(vf, test_design.X[rows], cap=cfg.shap.cap)
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
        with naming_file(path):
            raw = json.loads(path.read_text(encoding="utf-8"))
            lines.append(f"## Strategy {raw['strategy']}: prediction results")
            lines.append("")
            lines.append(render_results_markdown(ResultsTable.from_dict(raw)))

    timings = {}
    for path in sorted(out.glob("timing_strategy*.json")):
        name = re.fullmatch(r"timing_strategy(\d+)\.json", path.name)
        if name is None:
            raise ValueError(f"{path}: not a timing file name, timing_strategy<N>.json")
        timings[int(name[1])] = path
    # strategy 1 timing mirrors strategy 2 closely, so it is bundled only
    # when it is the sole run
    shown = [s for s in sorted(timings) if s != 1] or sorted(timings)
    for strategy in shown:
        with naming_file(timings[strategy]):
            payload = json.loads(timings[strategy].read_text(encoding="utf-8"))
            lines.append(f"## Strategy {strategy}: running time summary")
            lines.append("")
            lines.append(render_timing_markdown(read_timings(payload)))

    for path in sorted(out.glob("shap_mean_abs*.csv")):
        lines.append(f"## SHAP ranking ({path.name})")
        lines.append("")
        lines.append("| feature | mean |phi| |")
        lines.append("|---|---|")
        with naming_file(path), open(path, newline="", encoding="utf-8") as fh:
            for rec in csv.DictReader(fh):
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
    except (FileNotFoundError, ValueError, RuntimeError) as exc:  # PanelFormatError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
