"""Versioned JSON model bundles.

A bundle carries the family tag, the winning hyperparameters, the fitted
parameters as flattened arrays, the seed, and the feature-pipeline state
needed to rebuild an identical design matrix for new data (strategy,
standardizer, vocabularies, column names).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .families import ModelFamily, _numbers, get_family
from .features import StandardizationParams, StrategyConfig
from .fieldtypes import is_integer

FORMAT_VERSION = 1


@dataclass(frozen=True)
class PipelineState:
    """Everything needed to reproduce the train-time design matrix columns."""

    strategy: StrategyConfig
    numeric_names: tuple[str, ...]
    column_names: tuple[str, ...]
    kinds: tuple[str, ...]
    groups: dict[str, list[int]]
    standardizer: StandardizationParams | None
    site_vocabulary: tuple[str, ...] | None

    def as_dict(self) -> dict:
        return {
            "strategy": int(self.strategy.strategy),
            "categoricals": self.strategy.categoricals(),
            "numeric_names": list(self.numeric_names),
            "column_names": list(self.column_names),
            "kinds": list(self.kinds),
            "groups": {k: list(v) for k, v in self.groups.items()},
            "standardizer": None if self.standardizer is None else {
                "mean": self.standardizer.mean.tolist(),
                "sd": self.standardizer.sd.tolist(),
            },
            "site_vocabulary": None if self.site_vocabulary is None
            else list(self.site_vocabulary),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineState":
        std = raw["standardizer"]
        return cls(
            strategy=StrategyConfig.from_categoricals(raw["strategy"],
                                                      raw["categoricals"]),
            numeric_names=tuple(raw["numeric_names"]),
            column_names=tuple(raw["column_names"]),
            kinds=tuple(raw["kinds"]),
            groups={k: list(v) for k, v in raw["groups"].items()},
            standardizer=None if std is None else StandardizationParams(
                mean=_numbers(std["mean"], "pipeline.standardizer.mean"),
                sd=_numbers(std["sd"], "pipeline.standardizer.sd")),
            site_vocabulary=None if raw["site_vocabulary"] is None
            else tuple(raw["site_vocabulary"]),
        )


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
        except (TypeError, ValueError) as exc:
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
