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

import numpy as np

from .families import ModelFamily, get_family
from .features import StandardizationParams, Strategy, StrategyConfig

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
            "categoricals": {
                "site": self.strategy.site_onehot,
                "month": self.strategy.month_onehot,
                "weekday": self.strategy.weekday_onehot,
                "season": self.strategy.season_onehot,
                "year_ordinal": self.strategy.year_ordinal,
                "day_ordinal": self.strategy.day_ordinal,
            },
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
        cat = raw["categoricals"]
        strategy = StrategyConfig(
            strategy=Strategy(raw["strategy"]),
            site_onehot=cat["site"], month_onehot=cat["month"],
            weekday_onehot=cat["weekday"], season_onehot=cat["season"],
            year_ordinal=cat["year_ordinal"], day_ordinal=cat["day_ordinal"])
        std = raw["standardizer"]
        return cls(
            strategy=strategy,
            numeric_names=tuple(raw["numeric_names"]),
            column_names=tuple(raw["column_names"]),
            kinds=tuple(raw["kinds"]),
            groups={k: list(v) for k, v in raw["groups"].items()},
            standardizer=None if std is None else StandardizationParams(
                mean=np.asarray(std["mean"], dtype=float),
                sd=np.asarray(std["sd"], dtype=float)),
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
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format version {version!r}")
    family = get_family(payload["family"])
    pipeline = PipelineState.from_dict(payload["pipeline"])
    return ModelBundle(
        family=family,
        model=family.restore(payload["params"], len(pipeline.column_names)),
        hyper_params=payload["config"],
        seed=payload["seed"],
        pipeline=pipeline,
    )
