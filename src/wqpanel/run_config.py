"""Single-file JSON run configuration for the CLI.

The seed is mandatory (there is no wall-clock default: every run must be
reproducible). Relative paths are resolved against the config file's
directory. The output directory alone can be overridden by the
WQPANEL_OUTPUT_DIR environment variable; everything else changes via
flags or the file itself.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .families import FAMILIES
from .features import StrategyConfig, check_categoricals
from .fieldtypes import is_integer
from .tuner import FoldScheme

OUTPUT_DIR_ENV = "WQPANEL_OUTPUT_DIR"

SHAP_KINDS = ("marginalize", "retrain")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    seed: int
    train_csv: Path
    test_csv: Path
    schema_path: Path
    output_dir: Path
    sites_csv: Path | None = None
    strategy: int = 2
    categoricals: dict = field(default_factory=dict)
    cv_k: int = 5
    cv_scheme: str = "shuffled"
    families: tuple[str, ...] = tuple(FAMILIES)
    grids: dict = field(default_factory=dict)
    shap_kind: str = "marginalize"
    shap_background: int = 256
    shap_rows: list[int] | dict | None = None
    shap_cap: int = 15
    n_jobs: int = 1

    def strategy_config(self, strategy: int | None = None) -> StrategyConfig:
        number = self.strategy if strategy is None else strategy
        try:
            return StrategyConfig.from_categoricals(number, self.categoricals)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def fold_scheme(self) -> FoldScheme:
        return FoldScheme(self.cv_scheme)

    def require_data_paths(self) -> None:
        for label, path in (("train_csv", self.train_csv), ("test_csv", self.test_csv),
                            ("schema", self.schema_path)):
            if not path.exists():
                raise ConfigError(f"{label} path does not exist: {path}")
        if self.sites_csv is not None and not self.sites_csv.exists():
            raise ConfigError(f"sites_csv path does not exist: {self.sites_csv}")


def check_families(families, where: str) -> None:
    """Every name a tunable family, none twice; ``where`` names the source."""
    unknown = [f for f in families if f not in FAMILIES]
    if unknown:
        raise ConfigError(f"{where} names unknown tunable families {unknown}; "
                          f"known: {list(FAMILIES)}")
    repeated = next((f for i, f in enumerate(families) if f in families[:i]), None)
    if repeated is not None:
        raise ConfigError(f"{where} names family {repeated!r} more than once")


def _section(raw: dict, key: str) -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {value!r}")
    return value


def _grids(raw: dict) -> dict:
    """The grids section, checked: each entry a JSON object of non-empty
    lists named in its tunable family's parameters."""
    grids = {}
    for family, axes in _section(raw, "grids").items():
        if family not in FAMILIES:
            raise ConfigError(f"grids.{family}: unknown tunable family {family!r}; "
                              f"known: {list(FAMILIES)}")
        if not isinstance(axes, dict):
            raise ConfigError(f"grids.{family} must be a JSON object of axes, "
                              f"got {axes!r}")
        valid = FAMILIES[family].param_names
        for name, values in axes.items():
            if name not in valid:
                raise ConfigError(f"grids.{family}.{name} is not a {family} "
                                  f"parameter (valid: {sorted(valid)})")
            if not isinstance(values, list) or not values:
                raise ConfigError(f"grids.{family}.{name} must be a non-empty "
                                  f"list, got {values!r}")
        grids[family] = dict(axes)
    return grids


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object, got {type(raw).__name__}")

    if "seed" not in raw:
        raise ConfigError("config must set an explicit integer seed")
    seed = raw["seed"]
    if not is_integer(seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")

    data = _section(raw, "data")
    for key in ("train_csv", "test_csv", "schema"):
        if key not in data:
            raise ConfigError(f"config data section must set {key!r}")
    for key in ("train_csv", "test_csv", "schema", "sites_csv"):
        value = data.get(key)
        if not (isinstance(value, str) or key == "sites_csv" and value is None):
            raise ConfigError(f"data.{key} must be a path string, got {value!r}")
    base = path.parent

    def resolve(p) -> Path:
        p = Path(p)
        return p if p.is_absolute() else base / p

    out_dir = os.environ.get(OUTPUT_DIR_ENV) or raw.get("output_dir", "out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"output_dir must be a path string, got {out_dir!r}")

    strategy = raw.get("strategy", 2)
    if not is_integer(strategy) or strategy not in (1, 2, 3):
        raise ConfigError(f"strategy must be the integer 1, 2 or 3, got {strategy!r}")

    families = raw.get("families", list(FAMILIES))
    if not (isinstance(families, list) and all(isinstance(f, str) for f in families)):
        raise ConfigError(f"families must be a list of family names, got {families!r}")
    check_families(families, "families")

    categoricals = _section(raw, "categoricals")
    try:
        check_categoricals(categoricals)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    cv = _section(raw, "cv")
    cv_k = cv.get("k", 5)
    if not is_integer(cv_k) or cv_k < 2:
        raise ConfigError(f"cv.k must be an integer >= 2, got {cv_k!r}")
    cv_scheme = cv.get("scheme", "shuffled")
    if cv_scheme not in (s.value for s in FoldScheme):
        raise ConfigError(f"cv.scheme must be one of "
                          f"{[s.value for s in FoldScheme]}, got {cv_scheme!r}")

    shap = _section(raw, "shap")
    shap_kind = shap.get("kind", "marginalize")
    if shap_kind not in SHAP_KINDS:
        raise ConfigError(f"shap.kind must be one of {SHAP_KINDS}, got {shap_kind!r}")
    shap_rows = shap.get("rows")
    if not (shap_rows is None
            or isinstance(shap_rows, list) and all(is_integer(r) for r in shap_rows)
            or isinstance(shap_rows, dict) and shap_rows.keys() == {"sample"}
            and is_integer(shap_rows["sample"]) and shap_rows["sample"] >= 1):
        raise ConfigError(f"shap.rows must be a list of integers or "
                          f"{{\"sample\": n}} with an integer n >= 1, got {shap_rows!r}")
    for key, default in (("background_size", 256), ("cap", 15)):
        value = shap.get(key, default)
        if not is_integer(value) or value < 1:
            raise ConfigError(f"shap.{key} must be an integer >= 1, got {value!r}")

    n_jobs = raw.get("n_jobs", 1)
    if not is_integer(n_jobs) or n_jobs < 1:
        raise ConfigError(f"n_jobs must be an integer >= 1, got {n_jobs!r}")

    return RunConfig(
        seed=seed,
        train_csv=resolve(data["train_csv"]),
        test_csv=resolve(data["test_csv"]),
        schema_path=resolve(data["schema"]),
        sites_csv=resolve(data["sites_csv"]) if data.get("sites_csv") else None,
        output_dir=resolve(out_dir),
        strategy=strategy,
        categoricals=dict(categoricals),
        cv_k=cv_k,
        cv_scheme=cv_scheme,
        families=tuple(families),
        grids=_grids(raw),
        shap_kind=shap_kind,
        shap_background=shap.get("background_size", 256),
        shap_rows=shap_rows,
        shap_cap=shap.get("cap", 15),
        n_jobs=n_jobs,
    )
