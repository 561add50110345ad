"""Versioned JSON model bundles.

A bundle carries the family tag, the winning hyperparameters, the fitted
parameters as flattened arrays, the seed, and the feature-pipeline state
needed to rebuild an identical design matrix for new data (strategy,
categoricals, column names, standardizer, site vocabulary).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from .families import ModelFamily, _numbers, get_family
from .features import Categoricals, StandardizationParams, Strategy, StrategyConfig
from .fieldtypes import build, check_field_types, is_integer

FORMAT_VERSION = 2


@dataclass(frozen=True)
class PipelineState:
    """The bundle's ``pipeline`` object, a field per key: everything needed
    to reproduce the train-time design matrix columns."""

    strategy: int
    categoricals: Categoricals
    column_names: tuple[str, ...]
    standardizer: StandardizationParams | None
    site_vocabulary: tuple[str, ...]

    def __post_init__(self):
        check_field_types(self)
        if self.strategy not in tuple(Strategy):
            raise ValueError(f"strategy must be 1, 2 or 3, got {self.strategy}")
        if (self.standardizer is None) != (self.strategy == Strategy.RAW_NUMERIC):
            raise ValueError("standardizer must be null for strategy 1 and only then")
        self.strategy_config()  # strategy 3 needs the site group

    def strategy_config(self) -> StrategyConfig:
        return StrategyConfig(Strategy(self.strategy), self.categoricals)

    def as_dict(self) -> dict:
        raw = asdict(self)
        if self.standardizer is not None:
            raw["standardizer"] = {k: v.tolist() for k, v in raw["standardizer"].items()}
        return raw

    @classmethod
    def from_dict(cls, raw) -> "PipelineState":
        if not isinstance(raw, dict):
            raise ValueError(f"pipeline must be a JSON object, got {raw!r}")
        if "standardizer" not in raw:
            raise ValueError("pipeline.standardizer must be set")
        std = raw["standardizer"]
        if not (std is None or isinstance(std, dict) and std.keys() == {"mean", "sd"}):
            raise ValueError(f"pipeline.standardizer must be null or a JSON object of "
                             f"mean and sd, got {std!r}")
        try:  # bundle arrays, read as _numbers reads them, not by the type rule
            std = None if std is None else StandardizationParams(
                mean=_numbers(std["mean"], "mean"), sd=_numbers(std["sd"], "sd"))
        except ValueError as exc:
            raise ValueError(f"pipeline.standardizer.{exc}") from None
        return build(cls, {k: v for k, v in raw.items() if k != "standardizer"}, "pipeline",
                     standardizer=std)


@dataclass(frozen=True)
class ModelBundle:
    family: ModelFamily
    model: Any
    hyper_params: dict
    seed: int
    pipeline: PipelineState


def save_model(path: str | Path, family_name: str, model: Any, hyper_params: dict,
               seed: int, pipeline: PipelineState) -> None:
    family = get_family(family_name)
    payload = {
        "format_version": FORMAT_VERSION,
        "family": family.name,
        "config": hyper_params,
        "seed": seed,
        "params": family.export(model),
        "pipeline": pipeline.as_dict(),
    }
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path: str | Path) -> ModelBundle:
    """Read a bundle. A bundle that is not a JSON object, or a missing or
    malformed field, raises ValueError naming the file, and the field
    wherever the restorer knows it. The config must be one that the
    family's config builder accepts with the bundle's seed."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError("a model bundle must be a JSON object")
        version = payload.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version!r}")
        family = get_family(payload["family"])
        config, seed = payload["config"], payload["seed"]
        if not is_integer(seed) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        if not isinstance(config, dict):
            raise ValueError(f"config must be a JSON object, got {config!r}")
        try:
            family.config(config, seed)
        except ValueError as exc:
            raise ValueError(f"config {config!r} is invalid: {exc}") from None
        pipeline = PipelineState.from_dict(payload["pipeline"])
        return ModelBundle(
            family=family,
            model=family.restore(payload["params"], len(pipeline.column_names)),
            hyper_params=config,
            seed=seed,
            pipeline=pipeline,
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc.args[0]!r}") from None
    except (TypeError, AttributeError, IndexError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
