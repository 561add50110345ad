"""Versioned JSON model bundles.

A bundle carries the family tag, the winning hyperparameters, the fitted
model's parameters, the seed, and the feature-pipeline state needed to
rebuild an identical design matrix for new data (features.PipelineState:
strategy, categoricals, column names, standardizer, site vocabulary).
``params`` and ``pipeline`` mirror the model and PipelineState dataclasses
field by field: to_json writes them and fieldtypes.build reads them back.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .families import ModelFamily, get_family
from .fieldtypes import build, is_integer, to_json

FORMAT_VERSION = 2


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
    from .features import PipelineState  # here: report loads this module without numpy
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
        pipeline = build(PipelineState, payload["pipeline"], "pipeline")
        return ModelBundle(
            family=family,
            model=family.restore(payload["params"], len(pipeline.column_names)),
            hyper_params=config,
            seed=seed,
            pipeline=pipeline,
        )
