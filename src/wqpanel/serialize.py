"""Versioned JSON model bundles.

A bundle carries the family tag, the winning hyperparameters, the fitted
model's parameters, the seed, and the feature-pipeline state needed to
rebuild an identical design matrix for new data (strategy, categoricals,
column names, standardizer, site vocabulary). ``params`` and ``pipeline``
mirror the model and PipelineState dataclasses field by field: to_json
writes them and fieldtypes.build reads them back.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .families import ModelFamily, get_family
from .features import (Categoricals, StandardizationParams, Strategy, StrategyConfig,
                       one_hot_columns)
from .fieldtypes import build, check_field_types, is_integer, to_json

FORMAT_VERSION = 2


@dataclass(frozen=True)
class PipelineState:
    """The bundle's ``pipeline`` object, a field per key: everything needed
    to reproduce the train-time design matrix columns. The column names
    end with the one-hot columns that categoricals and the site vocabulary
    give, and the standardizer covers the numeric columns before them."""

    strategy: Strategy
    categoricals: Categoricals
    column_names: tuple[str, ...]
    standardizer: StandardizationParams | None
    site_vocabulary: tuple[str, ...]

    def __post_init__(self):
        check_field_types(self)
        if (self.standardizer is None) != (self.strategy == Strategy.RAW_NUMERIC):
            raise ValueError("standardizer must be null for strategy 1 and only then")
        self.strategy_config()  # strategy 3 needs the site group
        one_hot = () if self.strategy != Strategy.STANDARDIZED_PLUS_CATEGORICAL else tuple(
            name for columns in one_hot_columns(self.categoricals, self.site_vocabulary).values()
            for name in columns.values())
        n_numeric = len(self.column_names) - len(one_hot)
        if n_numeric < 0 or self.column_names[n_numeric:] != one_hot:
            raise ValueError(f"column_names must end with the {len(one_hot)} one-hot columns "
                             f"that categoricals and site_vocabulary give")
        if self.standardizer is not None and len(self.standardizer.mean) != n_numeric:
            raise ValueError(f"standardizer has {len(self.standardizer.mean)} entries, "
                             f"column_names has {n_numeric} numeric columns")

    def strategy_config(self) -> StrategyConfig:
        return StrategyConfig(self.strategy, self.categoricals)

    @classmethod
    def from_dict(cls, raw) -> "PipelineState":
        return build(cls, raw, "pipeline")


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
        "params": to_json(model),
        "pipeline": to_json(pipeline),
    }
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def naming_file(path: str | Path):
    """Re-raise a fault in the contents of the file at path (a missing key,
    a wrong type or a bad value) as a ValueError naming the file."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc.args[0]!r}") from None
    except (TypeError, AttributeError, IndexError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_model(path: str | Path) -> ModelBundle:
    """Read a bundle. A bundle that is not a JSON object, or a missing or
    malformed field, raises ValueError naming the file, and the field
    wherever the restorer knows it. The config must be one that the
    family's config builder accepts with the bundle's seed."""
    with naming_file(path):
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
