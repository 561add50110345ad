"""Single-file JSON run configuration for the CLI.

RunConfig mirrors the file: each key a field, each section (data,
categoricals, cv, shap) a nested dataclass, each default the value of a
key left out. The seed is mandatory (there is no wall-clock default:
every run must be reproducible). Relative paths are resolved against the
config file's directory. The output directory alone can be overridden by
the WQPANEL_OUTPUT_DIR environment variable; everything else changes via
flags or the file itself. This module, and so each section type, loads without numpy.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from .families import FAMILY_NAMES
from .fieldtypes import build, check_field_types, is_integer

OUTPUT_DIR_ENV = "WQPANEL_OUTPUT_DIR"

SHAP_KINDS = ("marginalize", "retrain")


class ConfigError(ValueError):
    pass


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


def check_strategy(strategy: Strategy, categoricals: Categoricals) -> None:
    """Strategy 3 needs the site group: it is the design's spatial block."""
    if strategy == Strategy.STANDARDIZED_PLUS_CATEGORICAL and not categoricals.site:
        raise ValueError("strategy 3 requires the site one-hot group")


class FoldScheme(enum.Enum):
    SHUFFLED = "shuffled"
    BLOCKED_BY_TIME = "blocked_by_time"


@dataclass(frozen=True)
class CVConfig:
    """The run config's cv section: k folds of scheme (tuner.kfold_split)."""

    k: int = 5
    scheme: FoldScheme = FoldScheme.SHUFFLED

    def __post_init__(self):
        check_field_types(self)
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")


@dataclass(frozen=True)
class DataSection:
    train_csv: Path
    test_csv: Path
    schema: Path
    sites_csv: Path | None = None  # "" or null: no sites file

    def __post_init__(self):
        check_field_types(self)


@dataclass(frozen=True)
class ShapSection:
    kind: str = "marginalize"
    background_size: int = 256
    rows: list[int] | dict | None = None  # row indices, {"sample": n}, or the first 10
    cap: int = 15

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in SHAP_KINDS:
            raise ValueError(f"kind must be one of {SHAP_KINDS}, got {self.kind!r}")
        rows = self.rows
        if not (rows is None
                or isinstance(rows, list) and all(map(is_integer, rows))
                or isinstance(rows, dict) and rows.keys() == {"sample"}
                and is_integer(rows["sample"]) and rows["sample"] >= 1):
            raise ValueError(f"rows must be a list of integers or {{\"sample\": n}} "
                             f"with an integer n >= 1, got {rows!r}")
        for name in ("background_size", "cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class RunConfig:
    seed: int
    data: DataSection
    output_dir: Path = Path("out")
    strategy: Strategy = Strategy.STANDARDIZED_NUMERIC
    categoricals: Categoricals = Categoricals()
    cv: CVConfig = CVConfig()
    families: tuple[str, ...] = tuple(FAMILY_NAMES)
    grids: dict = field(default_factory=dict)
    shap: ShapSection = ShapSection()
    n_jobs: int = 1

    def __post_init__(self):
        check_field_types(self)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        check_families(self.families, "families")
        _check_grids(self.grids)
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        check_strategy(self.strategy, self.categoricals)

    def require_data_paths(self) -> None:
        for name, path in vars(self.data).items():
            if path is not None and not path.is_file():
                raise ConfigError(f"data.{name} is not a file: {path}")


def check_families(families, where: str) -> None:
    """Every name a tunable family, none twice; ``where`` names the source."""
    unknown = [f for f in families if f not in FAMILY_NAMES]
    if unknown:
        raise ConfigError(f"{where} names unknown tunable families {unknown}; "
                          f"known: {list(FAMILY_NAMES)}")
    repeated = next((f for i, f in enumerate(families) if f in families[:i]), None)
    if repeated is not None:
        raise ConfigError(f"{where} names family {repeated!r} more than once")


def _check_grids(grids: dict) -> None:
    """Each grids entry a JSON object of non-empty lists named in its
    tunable family's parameters."""
    for family, axes in grids.items():
        if family not in FAMILY_NAMES:
            raise ConfigError(f"grids.{family}: unknown tunable family {family!r}; "
                              f"known: {list(FAMILY_NAMES)}")
        if not isinstance(axes, dict):
            raise ConfigError(f"grids.{family} must be a JSON object of axes, "
                              f"got {axes!r}")
        valid = FAMILY_NAMES[family].param_names
        for name, values in axes.items():
            if name not in valid:
                raise ConfigError(f"grids.{family}.{name} is not a {family} "
                                  f"parameter (valid: {sorted(valid)})")
            if not isinstance(values, list) or not values:
                raise ConfigError(f"grids.{family}.{name} must be a non-empty "
                                  f"list, got {values!r}")


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object, got {type(raw).__name__}")
    try:
        cfg = build(RunConfig, raw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    def resolve(p: Path | None) -> Path | None:
        return p if p is None or p.is_absolute() else path.parent / p

    out_dir = os.environ.get(OUTPUT_DIR_ENV)
    return replace(cfg, output_dir=resolve(Path(out_dir) if out_dir else cfg.output_dir),
                   data=replace(cfg.data, **{k: resolve(p) for k, p in vars(cfg.data).items()}))
